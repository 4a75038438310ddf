package cache

// SetGenForTest moves the cache's generation counter, so tests can reach
// the 32-bit wrap without 2^32 invalidations. Lines stamped with the old
// generation stop being resident, exactly as after an invalidation.
func (c *Cache) SetGenForTest(gen uint32) { c.gen = gen }
