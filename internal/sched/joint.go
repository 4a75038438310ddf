package sched

import (
	"fmt"

	"ironhide/internal/arch"
	"ironhide/internal/core"
	"ironhide/internal/driver"
	"ironhide/internal/metrics"
	"ironhide/internal/runner"
)

// Options tune one joint search.
type Options struct {
	// Scale must match every tenant trace's capture scale.
	Scale float64
	// SecureCores is the secure-cluster size being partitioned (0 = half
	// the machine; negative is an error).
	SecureCores int
	// Workers bounds the parallel evaluation pool (<= 1 sequential).
	// Results are byte-identical at any worker count.
	Workers int
	// Seed anchors the deterministic per-run seeds (default 1).
	Seed int64
	// Policies to compare (nil = every built-in policy).
	Policies []Policy
	// Interrupt, when non-nil, is polled between evaluations and threaded
	// into every co-run; a non-nil return aborts the search.
	Interrupt func() error
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1
	}
	return o.Scale
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) policies() []Policy {
	if len(o.Policies) == 0 {
		return Policies()
	}
	return o.Policies
}

// TenantScore is one tenant's measured outcome under one partition.
type TenantScore struct {
	App    string `json:"app"`
	Demand int    `json:"demand"` // solo binding the search would give it alone

	SecureCores   int `json:"secure_cores"`
	InsecureCores int `json:"insecure_cores"`

	SoloCycles int64 `json:"solo_cycles"` // single-active co-run baseline
	CoCycles   int64 `json:"co_cycles"`   // fully co-resident completion

	// Slowdown is CoCycles/SoloCycles: 1.0 = interference-free.
	Slowdown float64 `json:"slowdown"`

	LinkConflicts int64 `json:"link_conflicts"`
}

// PolicyScore is one policy's partition evaluated by co-running.
type PolicyScore struct {
	Policy  string        `json:"policy"`
	Tenants []TenantScore `json:"tenants"`

	// Throughput is the aggregate progress rate Σ SoloCycles/CoCycles —
	// each tenant contributes 1.0 when interference-free, less when slowed.
	Throughput float64 `json:"throughput"`
	// Fairness is min/max of the tenants' progress rates (1.0 = perfectly
	// even slowdowns, regardless of their magnitude).
	Fairness float64 `json:"fairness"`

	TotalCycles   int64 `json:"total_cycles"`
	LinkConflicts int64 `json:"link_conflicts"`
	// RouteViolations counts the co-run's accesses that left their
	// cluster's routes; contained routing keeps it 0.
	RouteViolations int64 `json:"route_violations,omitempty"`
	// L2MissDelta is the co-run's shared-cache misses minus the sum of the
	// solo baselines' — the cache interference the partition admitted.
	L2MissDelta int64 `json:"l2_miss_delta"`
}

// Report is the outcome of one joint search: every policy's partition
// scored by co-run, ranked best-first. It implements metrics.Tabular.
type Report struct {
	Name  string `json:"name"`
	Title string `json:"title"`

	Apps        []string      `json:"apps"`
	Scale       float64       `json:"scale"`
	SecureCores int           `json:"secure_cores"`
	Seed        int64         `json:"seed"`
	Best        string        `json:"best"`
	Policies    []PolicyScore `json:"policies"`
}

// JointSearch partitions the machine between the tenants under every
// candidate policy, seeding each partition with the tenants' solo binding
// demands, scores every partition by co-running (see Score), and returns
// the policies ranked by measured throughput and fairness.
func JointSearch(cfg arch.Config, tenants []Tenant, opts Options) (*Report, error) {
	if len(tenants) < 2 {
		return nil, fmt.Errorf("sched: joint search needs at least two tenants, got %d", len(tenants))
	}
	if err := checkTenants(tenants, opts.scale()); err != nil {
		return nil, err
	}
	res, err := MachineResources(cfg, opts.SecureCores)
	if err != nil {
		return nil, err
	}

	// Each tenant's solo binding demand — the cluster size the paper's
	// heuristic search would give it alone — seeds the packing.
	demands, err := runner.Map(opts.Workers, tenants, func(i int, t Tenant) (int, error) {
		sr, err := driver.SearchTrace(cfg, core.New(res.SecureCores), t.Trace, driver.Options{
			Scale:     opts.scale(),
			Seed:      runner.SeedFor(opts.seed(), i),
			Interrupt: opts.Interrupt,
		})
		if err != nil {
			return 0, fmt.Errorf("sched: demand search for %s: %w", t.Name, err)
		}
		return sr.SecureCores, nil
	})
	if err != nil {
		return nil, err
	}

	scores, err := Score(cfg, tenants, demands, opts)
	if err != nil {
		return nil, err
	}
	rankPolicies(scores)
	report := &Report{
		Name:        "cotenancy",
		Scale:       opts.scale(),
		SecureCores: res.SecureCores,
		Seed:        opts.seed(),
		Best:        scores[0].Policy,
		Policies:    scores,
	}
	for _, t := range tenants {
		report.Apps = append(report.Apps, t.Name)
	}
	report.Title = fmt.Sprintf("Joint scheduler: space-shared co-tenancy of %d tenants (%d secure cores, scale %g)",
		len(report.Apps), report.SecureCores, report.Scale)
	return report, nil
}

// Score partitions the machine between the tenants under each policy in
// opts, given each tenant's core demand (one per tenant), and measures every partition: one
// co-run of all tenants' traces on one machine, plus one single-active
// baseline co-run per tenant on an identically initialized machine. All
// (policy, run) cells fan out over one ordered pool, so the scores — in
// opts' policy order — are byte-identical at any worker count. A single
// tenant is scored against its own baseline.
func Score(cfg arch.Config, tenants []Tenant, demands []int, opts Options) ([]PolicyScore, error) {
	if err := checkTenants(tenants, opts.scale()); err != nil {
		return nil, err
	}
	res, err := MachineResources(cfg, opts.SecureCores)
	if err != nil {
		return nil, err
	}
	policies := opts.policies()
	parts := make([][]driver.CoTenant, len(policies))
	for i, p := range policies {
		shares, err := p.Partition(res, demands)
		if err != nil {
			return nil, fmt.Errorf("sched: policy %s: %w", p.Name(), err)
		}
		for ti := range shares {
			shares[ti].Trace = tenants[ti].Trace
		}
		parts[i] = shares
	}

	// Each policy needs 1 fully-active co-run plus one single-active
	// baseline per tenant; all cells are independent.
	type cell struct{ policy, active int } // active -1 = all tenants
	var cells []cell
	for pi := range policies {
		cells = append(cells, cell{pi, -1})
		for ti := range tenants {
			cells = append(cells, cell{pi, ti})
		}
	}
	runs, err := runner.Map(opts.Workers, cells, func(i int, c cell) (*driver.CoRunResult, error) {
		if opts.Interrupt != nil {
			if err := opts.Interrupt(); err != nil {
				return nil, err
			}
		}
		co := driver.CoRunOptions{
			Scale:       opts.scale(),
			SecureCores: res.SecureCores,
			Seed:        opts.seed(),
			Interrupt:   opts.Interrupt,
		}
		if c.active >= 0 {
			co.Active = make([]bool, len(tenants))
			co.Active[c.active] = true
		}
		r, err := driver.CoRunTraces(cfg, parts[c.policy], co)
		if err != nil {
			return nil, fmt.Errorf("sched: policy %s: %w", policies[c.policy].Name(), err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	scores := make([]PolicyScore, len(policies))
	stride := 1 + len(tenants)
	for pi, p := range policies {
		coRun := runs[pi*stride]
		score := PolicyScore{Policy: p.Name(), TotalCycles: coRun.TotalCycles, RouteViolations: coRun.RouteViolations}
		var soloL2 int64
		minRate, maxRate := 0.0, 0.0
		for ti := range tenants {
			solo := runs[pi*stride+1+ti]
			soloL2 += solo.L2Misses
			ts := TenantScore{
				App:           tenants[ti].Name,
				Demand:        demands[ti],
				SecureCores:   coRun.Tenants[ti].SecureCores,
				InsecureCores: coRun.Tenants[ti].InsecureCores,
				SoloCycles:    solo.Tenants[ti].CompletionCycles,
				CoCycles:      coRun.Tenants[ti].CompletionCycles,
				LinkConflicts: coRun.Tenants[ti].LinkConflicts,
			}
			rate := 1.0
			if ts.SoloCycles > 0 {
				ts.Slowdown = float64(ts.CoCycles) / float64(ts.SoloCycles)
				rate = float64(ts.SoloCycles) / float64(ts.CoCycles)
			}
			score.Tenants = append(score.Tenants, ts)
			score.Throughput += rate
			score.LinkConflicts += ts.LinkConflicts
			if ti == 0 || rate < minRate {
				minRate = rate
			}
			if ti == 0 || rate > maxRate {
				maxRate = rate
			}
		}
		if maxRate > 0 {
			score.Fairness = minRate / maxRate
		}
		score.L2MissDelta = coRun.L2Misses - soloL2
		scores[pi] = score
	}
	return scores, nil
}

// checkTenants rejects tenants without a trace or captured at another
// scale than the one they are scored at.
func checkTenants(tenants []Tenant, scale float64) error {
	for i, t := range tenants {
		if t.Trace == nil {
			return fmt.Errorf("sched: tenant %d (%s) has no trace", i, t.Name)
		}
		if t.Trace.Scale != scale {
			return fmt.Errorf("sched: tenant %d (%s) captured at scale %g cannot joint-search at scale %g", i, t.Name, t.Trace.Scale, scale)
		}
	}
	return nil
}

// ReportName implements metrics.Tabular.
func (r *Report) ReportName() string { return r.Name }

// ReportTitle implements metrics.Tabular.
func (r *Report) ReportTitle() string { return r.Title }

// Sections implements metrics.Tabular.
func (r *Report) Sections() []metrics.Section {
	cmp := metrics.Section{
		Caption: "Packing policies ranked by co-run throughput",
		Columns: []string{"Policy", "Throughput", "Fairness", "Total cycles", "Link conflicts", "L2 miss delta"},
		Notes: []string{
			"throughput = sum over tenants of solo/co progress rate (1.0 per tenant = interference-free)",
			"fairness = min/max tenant progress rate; solo baselines share the co-run's machine layout",
			fmt.Sprintf("best policy: %s", r.Best),
		},
	}
	for _, p := range r.Policies {
		cmp.Rows = append(cmp.Rows, []string{
			p.Policy, metrics.F(p.Throughput), metrics.F(p.Fairness),
			fmt.Sprintf("%d", p.TotalCycles), fmt.Sprintf("%d", p.LinkConflicts), fmt.Sprintf("%d", p.L2MissDelta),
		})
	}
	out := []metrics.Section{cmp}
	for _, p := range r.Policies {
		sec := metrics.Section{
			Caption: fmt.Sprintf("Per-tenant shares and slowdowns under %s", p.Policy),
			Columns: []string{"Tenant", "Demand", "Sec cores", "Ins cores", "Solo cycles", "Co cycles", "Slowdown", "Link conflicts"},
		}
		for _, t := range p.Tenants {
			sec.Rows = append(sec.Rows, []string{
				t.App, fmt.Sprintf("%d", t.Demand),
				fmt.Sprintf("%d", t.SecureCores), fmt.Sprintf("%d", t.InsecureCores),
				fmt.Sprintf("%d", t.SoloCycles), fmt.Sprintf("%d", t.CoCycles),
				metrics.Fx(t.Slowdown), fmt.Sprintf("%d", t.LinkConflicts),
			})
		}
		out = append(out, sec)
	}
	return out
}
