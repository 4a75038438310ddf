// Typed phase events: the engine's live emission surface. A timeline run
// is no longer only a terminal Report — every tenant arrival/departure,
// every resize decision (authorized, denied by the kernel's budget, or
// deferred by the reconfiguration policy), every purge bill and every
// phase completion is pushed through the Sink callback the moment the
// engine knows it. The HTTP service frames these as NDJSON/SSE chunks so
// clients watch enclaves resize live; the CLI and tests consume them
// directly.
//
// Emission is synchronous and deterministic: the same Spec (same seed)
// produces the identical event sequence at any worker count, because
// events fire from the engine's single-threaded phase loop, never from
// the replay worker pool.
package scenario

// Stream event types, in the order they can appear within one phase.
const (
	// EvTenantArrive fires after an arriving tenant is attested and
	// admitted; Tenants carries the post-arrival resident set.
	EvTenantArrive = "tenant-arrive"
	// EvTenantDepart fires after a departing tenant's pages are retired
	// and its secure-cluster state scrubbed.
	EvTenantDepart = "tenant-depart"
	// EvLoadShift fires when a resident tenant's weight changes.
	EvLoadShift = "load-shift"
	// EvResizeAuthorized fires when the kernel authorized a cluster
	// resize and the machine performed it (cores/pages moved are final).
	// Reason is ResizeForced when the policy could not defer it.
	EvResizeAuthorized = "resize-authorized"
	// EvResizeDenied fires when a wanted resize did not happen; Reason
	// distinguishes the kernel's budget from the reconfiguration policy.
	EvResizeDenied = "resize-denied"
	// EvPurgeCost fires when a phase charged purge or context-switch
	// cycles on the shared machine.
	EvPurgeCost = "purge-cost"
	// EvPhaseComplete closes a phase; Detail carries the full Phase
	// accounting, so concatenated phase-complete events reconstruct
	// Report.Phases exactly.
	EvPhaseComplete = "phase-complete"
)

// Resize reasons: why a wanted resize was denied, or why an authorized
// one bypassed the reconfiguration policy.
const (
	// DeniedBudget: the kernel's once-per-invocation reconfiguration
	// budget refused the resize.
	DeniedBudget = "budget"
	// DeniedPolicy: the reconfiguration policy deferred the resize before
	// the kernel was even asked.
	DeniedPolicy = "policy"
	// ResizeForced: the installed binding left a resident tenant without
	// a core in some cluster, so the engine attempted the resize without
	// consulting the policy.
	ResizeForced = "forced"
)

// StreamEvent is one typed engine emission. Type selects which fields are
// meaningful; unused fields are zero and omitted from JSON, so each event
// encodes as one compact NDJSON-friendly object.
type StreamEvent struct {
	Type  string `json:"type"`
	Phase int    `json:"phase"`

	// Tenant events.
	App     string   `json:"app,omitempty"`
	Factor  float64  `json:"factor,omitempty"`
	Tenants []string `json:"tenants,omitempty"`

	// Resize events.
	BindingFrom int    `json:"binding_from,omitempty"`
	BindingTo   int    `json:"binding_to,omitempty"`
	CoresMoved  int    `json:"cores_moved,omitempty"`
	PagesMoved  int    `json:"pages_moved,omitempty"`
	Reason      string `json:"reason,omitempty"`

	// Purge accounting.
	PurgeCycles     int64 `json:"purge_cycles,omitempty"`
	CtxSwitchCycles int64 `json:"ctx_switch_cycles,omitempty"`

	// Phase completion.
	Detail *Phase `json:"detail,omitempty"`
}

// Sink receives engine events as they happen. Calls are synchronous from
// the engine's phase loop (never concurrent), in a deterministic order
// for a given Spec; a Sink must not block if the caller wants liveness.
type Sink func(StreamEvent)

// emit pushes an event to the run's sink, if any.
func (e *engine) emit(ev StreamEvent) {
	if e.opts.Sink != nil {
		e.opts.Sink(ev)
	}
}
