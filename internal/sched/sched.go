// Package sched is the joint scheduler for space-shared co-tenancy: given
// several distrusting tenants that want the secure cluster at once, it
// enumerates candidate partitions of the machine — disjoint sub-gangs of
// cores plus L2-slice and DRAM-region shares — under pluggable packing
// policies, scores each partition by actually co-running the tenants'
// traces on one machine (real interference through the shared memory
// system, not an analytic estimate), and ranks the policies by aggregate
// throughput and fairness.
//
// The paper's single-tenant flow picks one cluster binding per
// application; the joint scheduler generalizes that search to a partition
// of the secure cluster. Each tenant's solo binding demand (the paper's
// heuristic search) seeds the partitioning; the co-run scores close the
// loop with measured slowdowns. Everything is deterministic: per-tenant
// demand searches and per-partition co-runs fan out over the ordered
// runner, so a joint search is byte-identical at any worker count.
package sched

import (
	"fmt"
	"sort"

	"ironhide/internal/arch"
	"ironhide/internal/cache"
	"ironhide/internal/core"
	"ironhide/internal/driver"
	"ironhide/internal/enclave"
	"ironhide/internal/mem"
	"ironhide/internal/trace"
)

// Tenant is one applicant for a share of the machine: a named, captured
// workload trace.
type Tenant struct {
	Name  string
	Trace *trace.Trace
}

// Share is one tenant's slice of the machine under a candidate partition.
// Core sets are always disjoint across tenants; slice and region sets may
// be shared (nil = the whole cluster's), depending on the policy.
type Share struct {
	SecureCores   []arch.CoreID
	InsecureCores []arch.CoreID

	SecureSlices   []cache.SliceID
	InsecureSlices []cache.SliceID

	SecureRegions   []int
	InsecureRegions []int
}

// Partition assigns every tenant a Share under one policy.
type Partition struct {
	Policy string
	Shares []Share
}

// CoTenants binds the partition's shares to the tenants' traces, ready
// for driver.CoRunTraces.
func (p Partition) CoTenants(tenants []Tenant) []driver.CoTenant {
	out := make([]driver.CoTenant, len(tenants))
	for i, t := range tenants {
		s := p.Shares[i]
		out[i] = driver.CoTenant{
			Trace:           t.Trace,
			SecureCores:     s.SecureCores,
			InsecureCores:   s.InsecureCores,
			SecureSlices:    s.SecureSlices,
			InsecureSlices:  s.InsecureSlices,
			SecureRegions:   s.SecureRegions,
			InsecureRegions: s.InsecureRegions,
		}
	}
	return out
}

// Resources describes what a partition divides: the machine geometry, the
// secure-cluster size, and the DRAM regions each domain owns under the
// configured controller split.
type Resources struct {
	Cfg             arch.Config
	SecureCores     int
	SecureRegions   []int
	InsecureRegions []int
}

// MachineResources derives the partitionable resources of a machine
// configured by core.New(secureCores).Configure, without building one:
// the DRAM regions each domain owns depend only on the configuration and
// the secure controller mask, and the split is validated exactly as
// Configure validates it.
func MachineResources(cfg arch.Config, secureCores int) (Resources, error) {
	if secureCores <= 0 {
		secureCores = cfg.Cores() / 2
	}
	if err := cfg.Validate(); err != nil {
		return Resources{}, err
	}
	if _, err := core.ClusterSplit(secureCores, cfg); err != nil {
		return Resources{}, err
	}
	part := mem.NewPartition(cfg)
	if err := part.AssignDomains(enclave.SecureControllerMask); err != nil {
		return Resources{}, err
	}
	return Resources{
		Cfg:             cfg,
		SecureCores:     secureCores,
		SecureRegions:   part.RegionsOf(arch.Secure),
		InsecureRegions: part.RegionsOf(arch.Insecure),
	}, nil
}

// Policy turns per-tenant core demands into a candidate partition.
type Policy interface {
	Name() string
	Partition(res Resources, demands []int) (Partition, error)
}

// Policies returns the built-in packing policies in comparison order.
func Policies() []Policy {
	return []Policy{BestFit{}, InterferenceAware{}, FairnessFloor{}}
}

// PolicyByName resolves a policy name ("" = every built-in policy).
func PolicyByName(name string) ([]Policy, error) {
	if name == "" {
		return Policies(), nil
	}
	for _, p := range Policies() {
		if p.Name() == name {
			return []Policy{p}, nil
		}
	}
	return nil, fmt.Errorf("sched: unknown policy %q (want best-fit|interference-aware|fairness-floor)", name)
}

// BestFit packs cores proportionally to each tenant's solo binding demand
// and shares everything else: all tenants home pages across the whole
// cluster's L2 slices and interleave over all of their domain's DRAM
// regions. Maximum capacity, maximum interference surface.
type BestFit struct{}

func (BestFit) Name() string { return "best-fit" }

func (BestFit) Partition(res Resources, demands []int) (Partition, error) {
	secShares, insShares, err := coreShares(res, demands, true)
	if err != nil {
		return Partition{}, err
	}
	p := Partition{Policy: "best-fit", Shares: make([]Share, len(demands))}
	for i := range demands {
		p.Shares[i] = Share{SecureCores: secShares[i], InsecureCores: insShares[i]}
	}
	return p, nil
}

// InterferenceAware packs cores proportionally to demand like BestFit but
// closes the shared-path channels it can: each tenant's pages are homed
// only on the L2 slices co-located with its own cores (so slice traffic
// stays inside the tenant's rows), and DRAM regions are striped across
// tenants so no two tenants queue on the same controller when the region
// count allows it.
type InterferenceAware struct{}

func (InterferenceAware) Name() string { return "interference-aware" }

func (InterferenceAware) Partition(res Resources, demands []int) (Partition, error) {
	secShares, insShares, err := coreShares(res, demands, true)
	if err != nil {
		return Partition{}, err
	}
	return isolatedShares("interference-aware", res, secShares, insShares), nil
}

// FairnessFloor gives every tenant an equal core count regardless of
// demand — the floor no tenant can fall below — with the same slice
// co-location and region striping as InterferenceAware.
type FairnessFloor struct{}

func (FairnessFloor) Name() string { return "fairness-floor" }

func (FairnessFloor) Partition(res Resources, demands []int) (Partition, error) {
	secShares, insShares, err := coreShares(res, demands, false)
	if err != nil {
		return Partition{}, err
	}
	return isolatedShares("fairness-floor", res, secShares, insShares), nil
}

// isolatedShares assembles shares with per-tenant co-located slices and
// striped regions on top of the given core split.
func isolatedShares(policy string, res Resources, secShares, insShares [][]arch.CoreID) Partition {
	n := len(secShares)
	secRegions := stripeRegions(res.SecureRegions, n)
	insRegions := stripeRegions(res.InsecureRegions, n)
	p := Partition{Policy: policy, Shares: make([]Share, n)}
	for i := 0; i < n; i++ {
		s := Share{SecureCores: secShares[i], InsecureCores: insShares[i]}
		s.SecureSlices = colocatedSlices(secShares[i])
		s.InsecureSlices = colocatedSlices(insShares[i])
		if secRegions != nil {
			s.SecureRegions = secRegions[i]
		}
		if insRegions != nil {
			s.InsecureRegions = insRegions[i]
		}
		p.Shares[i] = s
	}
	return p
}

// coreShares splits both clusters' cores into per-tenant contiguous
// chunks, sized proportionally to demand (D'Hondt rounds, every tenant at
// least one core) or equally.
func coreShares(res Resources, demands []int, proportional bool) (sec, ins [][]arch.CoreID, err error) {
	n := len(demands)
	secTotal := res.SecureCores
	insTotal := res.Cfg.Cores() - res.SecureCores
	if n > secTotal || n > insTotal {
		return nil, nil, fmt.Errorf("sched: %d tenants cannot each hold a core in clusters of %d+%d", n, secTotal, insTotal)
	}
	var secCounts, insCounts []int
	if proportional {
		secCounts = apportion(secTotal, demands)
		insCounts = apportion(insTotal, demands)
	} else {
		secCounts = equalSplit(secTotal, n)
		insCounts = equalSplit(insTotal, n)
	}
	sec = chunkCores(0, secCounts)
	ins = chunkCores(res.SecureCores, insCounts)
	return sec, ins, nil
}

// apportion splits total cores over tenants proportionally to demands via
// D'Hondt rounds: every tenant starts with one core, and each remaining
// core goes to the tenant with the highest demand-per-core-held ratio
// (ties to the lowest index). Deterministic, integral, and never starves a
// tenant.
func apportion(total int, demands []int) []int {
	n := len(demands)
	shares := make([]int, n)
	for i := range shares {
		shares[i] = 1
	}
	for rem := total - n; rem > 0; rem-- {
		best := 0
		for i := 1; i < n; i++ {
			// demand[i]/shares[i] > demand[best]/shares[best], in integers.
			if clampDemand(demands[i])*shares[best] > clampDemand(demands[best])*shares[i] {
				best = i
			}
		}
		shares[best]++
	}
	return shares
}

func clampDemand(d int) int {
	if d < 1 {
		return 1
	}
	return d
}

// equalSplit gives every tenant total/n cores, remainder to the lowest
// indices.
func equalSplit(total, n int) []int {
	shares := make([]int, n)
	for i := range shares {
		shares[i] = total / n
		if i < total%n {
			shares[i]++
		}
	}
	return shares
}

// chunkCores lays the per-tenant counts out as contiguous core ranges
// starting at base — contiguity keeps each tenant inside as few mesh rows
// as possible.
func chunkCores(base int, counts []int) [][]arch.CoreID {
	out := make([][]arch.CoreID, len(counts))
	next := base
	for i, cnt := range counts {
		ids := make([]arch.CoreID, cnt)
		for j := range ids {
			ids[j] = arch.CoreID(next)
			next++
		}
		out[i] = ids
	}
	return out
}

// colocatedSlices homes a tenant only on the L2 slices co-located with its
// own cores (slice i shares a tile with core i).
func colocatedSlices(cores []arch.CoreID) []cache.SliceID {
	out := make([]cache.SliceID, len(cores))
	for i, c := range cores {
		out[i] = cache.SliceID(c)
	}
	return out
}

// stripeRegions deals the domain's regions round-robin across n tenants so
// tenants land on different memory controllers where possible. When there
// are fewer regions than tenants someone would starve, so everyone shares
// (nil).
func stripeRegions(regions []int, n int) [][]int {
	if len(regions) < n {
		return nil
	}
	out := make([][]int, n)
	for j, r := range regions {
		i := j % n
		out[i] = append(out[i], r)
	}
	return out
}

// rankPolicies orders policy scores best-first: aggregate throughput
// descending, fairness descending, then policy name — a total order, so
// the ranking is deterministic.
func rankPolicies(scores []PolicyScore) {
	sort.SliceStable(scores, func(i, j int) bool {
		a, b := scores[i], scores[j]
		if a.Throughput != b.Throughput {
			return a.Throughput > b.Throughput
		}
		if a.Fairness != b.Fairness {
			return a.Fairness > b.Fairness
		}
		return a.Policy < b.Policy
	})
}
