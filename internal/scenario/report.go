// Typed scenario report: the measurement half of a multi-tenant timeline
// run, rendered by the pluggable text/CSV/JSON emitters in
// internal/metrics. The JSON form is the determinism contract of the
// engine — identical seeds must produce byte-identical encodings — so
// every field is populated by deterministic computation and every slice
// is ordered by construction, never by map iteration.
package scenario

import (
	"fmt"
	"strings"

	"ironhide/internal/metrics"
)

// TenantRun is one resident application's measured share of a phase.
type TenantRun struct {
	App              string  `json:"app"`
	Weight           float64 `json:"weight"`
	Seed             int64   `json:"seed"`
	SecureCores      int     `json:"secure_cores"`
	CompletionCycles int64   `json:"completion_cycles"`
	RouteViolations  int64   `json:"route_violations"`

	// Co-tenancy phases (Spec.CoTenancy) copy the tenant's sched.Score:
	// CompletionCycles is its co-resident completion, SoloCycles its
	// single-active baseline on an identically initialized machine,
	// Slowdown CompletionCycles/SoloCycles, and LinkConflicts its NoC
	// contention events. All zero (and omitted) on time-shared phases.
	SoloCycles    int64   `json:"solo_cycles,omitempty"`
	Slowdown      float64 `json:"slowdown,omitempty"`
	LinkConflicts int64   `json:"link_conflicts,omitempty"`
}

// Phase is the accounting of one timeline event: the event itself, the
// resulting cluster resize (or its denial by the kernel's budget), the
// purge costs charged on the shared machine, and the per-tenant phase
// completions at the installed binding.
type Phase struct {
	Index   int      `json:"index"`
	Event   string   `json:"event"`
	Tenants []string `json:"tenants"`

	BindingFrom  int  `json:"binding_from"`
	BindingTo    int  `json:"binding_to"`
	CoresMoved   int  `json:"cores_moved"`
	PagesMoved   int  `json:"pages_moved"`
	BudgetDenied bool `json:"budget_denied,omitempty"`
	// PolicyDeferred marks a phase whose demanded resize the
	// reconfiguration policy declined to attempt — no budget spent, no
	// purge paid, binding unchanged. Distinct from BudgetDenied, where
	// the policy approved but the kernel refused.
	PolicyDeferred bool `json:"policy_deferred,omitempty"`
	// ForcedResize marks a resize the policy was not allowed to defer: the
	// installed binding left some resident tenant without a core in one
	// of the clusters. Its purge is billed like any other resize.
	ForcedResize bool `json:"forced_resize,omitempty"`

	// PurgeCycles is the dynamic-hardware-isolation stall of this phase's
	// resize: private L1/TLB flushes of every core that changed domains,
	// the L2 re-allocation page re-homing (vacated slices are
	// flush-and-invalidated), and the kernel orchestration overhead.
	PurgeCycles int64 `json:"purge_cycles"`
	// CtxSwitchCycles charges the purges between mutually distrusting
	// secure processes time-sharing the secure cluster within the phase
	// (and the scrub of a departing tenant's state).
	CtxSwitchCycles int64 `json:"ctx_switch_cycles"`

	Runs []TenantRun `json:"runs"`

	// Co-tenancy phases copy the packing policy's sched.Score: the policy,
	// the co-run's shared-horizon end (which replaces the serialized sum in
	// PhaseCycles), and the co-run machine's route-violation count. All
	// zero-valued (and omitted) on time-shared phases.
	Policy            string `json:"policy,omitempty"`
	CoRunCycles       int64  `json:"co_run_cycles,omitempty"`
	CoRouteViolations int64  `json:"co_route_violations,omitempty"`

	// PhaseCycles is the phase's wall-clock on the shared machine: the
	// resize stall, the context-switch purges, and the tenants' completions
	// — serialized when secure processes time-share the secure cluster,
	// the shared co-run horizon when they space-share it.
	PhaseCycles int64 `json:"phase_cycles"`
}

// Report is the outcome of one scenario run. Same seed ⇒ byte-identical
// JSON encoding, under -race and across replay.
type Report struct {
	Name  string `json:"name"`
	Title string `json:"title"`

	Model      string   `json:"model"`
	Seed       int64    `json:"seed"`
	Scale      float64  `json:"scale"`
	Apps       []string `json:"apps"`
	MaxTenants int      `json:"max_tenants"`
	CoTenancy  bool     `json:"cotenancy,omitempty"`
	Policy     string   `json:"policy,omitempty"`
	// ReconfigPolicy names the resize-decision policy, set only when the
	// spec selected one explicitly (legacy reports stay byte-identical).
	ReconfigPolicy string `json:"reconfig_policy,omitempty"`

	Phases []Phase `json:"phases"`

	TotalCycles      int64 `json:"total_cycles"`
	TotalPurgeCycles int64 `json:"total_purge_cycles"`
	Reconfigs        int   `json:"reconfigs"`
	Denied           int   `json:"denied"`
	// Deferred counts resizes the reconfiguration policy declined to
	// attempt (omitted for the default "always" policy, which never
	// defers).
	Deferred        int   `json:"deferred,omitempty"`
	RouteViolations int64 `json:"route_violations"`
}

// ReportName implements metrics.Tabular.
func (r *Report) ReportName() string { return r.Name }

// ReportTitle implements metrics.Tabular.
func (r *Report) ReportTitle() string { return r.Title }

// Sections implements metrics.Tabular: the phase timeline, then the
// per-tenant runs, then the totals.
func (r *Report) Sections() []metrics.Section {
	timeline := metrics.Section{
		Caption: fmt.Sprintf("timeline (model %s, seed %d, scale %g):", r.Model, r.Seed, r.Scale),
		Columns: []string{"phase", "event", "tenants", "binding", "moved", "pages", "purge", "ctx-switch", "phase cycles"},
	}
	for _, p := range r.Phases {
		binding := fmt.Sprintf("%d->%d", p.BindingFrom, p.BindingTo)
		if p.BudgetDenied {
			binding += " DENIED"
		}
		if p.PolicyDeferred {
			binding += " DEFERRED"
		}
		if p.ForcedResize {
			binding += " FORCED"
		}
		timeline.Rows = append(timeline.Rows, []string{
			fmt.Sprintf("%d", p.Index), p.Event, strings.Join(p.Tenants, "+"), binding,
			fmt.Sprintf("%d", p.CoresMoved), fmt.Sprintf("%d", p.PagesMoved),
			fmt.Sprintf("%d", p.PurgeCycles), fmt.Sprintf("%d", p.CtxSwitchCycles),
			fmt.Sprintf("%d", p.PhaseCycles),
		})
	}

	runs := metrics.Section{
		Caption: "per-tenant phase completions:",
		Columns: []string{"phase", "application", "weight", "secure cores", "completion"},
	}
	if r.CoTenancy {
		runs.Caption = fmt.Sprintf("per-tenant co-resident completions (policy %s):", r.Policy)
		runs.Columns = append(runs.Columns, "solo", "slowdown", "link conflicts")
	}
	for _, p := range r.Phases {
		for _, t := range p.Runs {
			row := []string{
				fmt.Sprintf("%d", p.Index), t.App, metrics.F(t.Weight),
				fmt.Sprintf("%d", t.SecureCores), fmt.Sprintf("%d", t.CompletionCycles),
			}
			if r.CoTenancy {
				row = append(row, fmt.Sprintf("%d", t.SoloCycles), metrics.Fx(t.Slowdown), fmt.Sprintf("%d", t.LinkConflicts))
			}
			runs.Rows = append(runs.Rows, row)
		}
	}

	totals := metrics.Section{Notes: []string{
		fmt.Sprintf("total: %d cycles over %d phases; purge %d cycles (%s of total); %d resizes, %d denied by the reconfiguration budget",
			r.TotalCycles, len(r.Phases), r.TotalPurgeCycles, metrics.Pct(r.purgeShare()), r.Reconfigs, r.Denied),
		fmt.Sprintf("route violations: %d (contained routing must keep this at zero)", r.RouteViolations),
	}}
	if r.ReconfigPolicy != "" {
		totals.Notes = append(totals.Notes,
			fmt.Sprintf("reconfiguration policy %s: %d resizes deferred before reaching the kernel", r.ReconfigPolicy, r.Deferred))
	}
	return []metrics.Section{timeline, runs, totals}
}

func (r *Report) purgeShare() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return float64(r.TotalPurgeCycles) / float64(r.TotalCycles)
}
