package sched

import (
	"encoding/json"
	"reflect"
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/core"
	"ironhide/internal/driver"
	"ironhide/internal/graphalg"
	"ironhide/internal/graphgen"
	"ironhide/internal/sim"
	"ironhide/internal/workload"
)

func appA() *workload.App {
	g := graphgen.NewRoadNetwork(24, 24, 60, 3)
	gen := graphgen.NewGenerator(g, 24, 7)
	return &workload.App{
		Name: "tiny-a", Class: workload.User,
		Insecure: gen,
		Secure:   graphalg.NewSSSP(gen, 0, 2),
		Rounds:   8, Warmup: 2, ProfileRounds: 4,
		PayloadBytes: 512, ReplyBytes: 128,
	}
}

func appB() *workload.App {
	g := graphgen.NewRoadNetwork(20, 20, 45, 5)
	gen := graphgen.NewGenerator(g, 20, 11)
	return &workload.App{
		Name: "tiny-b", Class: workload.User,
		Insecure: gen,
		Secure:   graphalg.NewSSSP(gen, 1, 2),
		Rounds:   6, Warmup: 2, ProfileRounds: 4,
		PayloadBytes: 384, ReplyBytes: 96,
	}
}

func testTenants(t *testing.T, cfg arch.Config) []Tenant {
	t.Helper()
	trA, err := driver.CaptureTrace(cfg, appA, driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	trB, err := driver.CaptureTrace(cfg, appB, driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return []Tenant{{Name: "tiny-a", Trace: trA}, {Name: "tiny-b", Trace: trB}}
}

func TestApportion(t *testing.T) {
	cases := []struct {
		total   int
		demands []int
		want    []int
	}{
		{32, []int{16, 16}, []int{16, 16}},
		{32, []int{24, 8}, []int{24, 8}},
		{32, []int{1, 1, 1, 1}, []int{8, 8, 8, 8}},
		{8, []int{100, 1}, []int{7, 1}}, // never starves the small tenant
		{5, []int{2, 2}, []int{3, 2}},   // remainder to the lowest index
		{3, []int{0, 0, 0}, []int{1, 1, 1}},
	}
	for _, tc := range cases {
		if got := apportion(tc.total, tc.demands); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("apportion(%d, %v) = %v, want %v", tc.total, tc.demands, got, tc.want)
		}
	}
}

func TestEqualSplit(t *testing.T) {
	if got := equalSplit(32, 3); !reflect.DeepEqual(got, []int{11, 11, 10}) {
		t.Fatalf("equalSplit(32,3) = %v", got)
	}
}

func TestStripeRegions(t *testing.T) {
	if got := stripeRegions([]int{0, 1, 4, 5}, 2); !reflect.DeepEqual(got, [][]int{{0, 4}, {1, 5}}) {
		t.Fatalf("stripeRegions = %v", got)
	}
	if got := stripeRegions([]int{0, 1}, 3); got != nil {
		t.Fatalf("striping 2 regions over 3 tenants should fall back to sharing, got %v", got)
	}
}

// Every policy must produce a well-formed partition: disjoint in-cluster
// cores for every tenant, slices inside the right cluster, regions owned
// by the right domain.
func TestPoliciesProduceValidPartitions(t *testing.T) {
	cfg := arch.TileGx72()
	res, err := MachineResources(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SecureRegions) == 0 || len(res.InsecureRegions) == 0 {
		t.Fatalf("no regions discovered: %+v", res)
	}
	for _, pol := range Policies() {
		part, err := pol.Partition(res, []int{20, 12, 5})
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if len(part.Shares) != 3 {
			t.Fatalf("%s: %d shares", pol.Name(), len(part.Shares))
		}
		seen := map[arch.CoreID]bool{}
		var secTotal, insTotal int
		for i, s := range part.Shares {
			if len(s.SecureCores) == 0 || len(s.InsecureCores) == 0 {
				t.Fatalf("%s: tenant %d starved of cores", pol.Name(), i)
			}
			secTotal += len(s.SecureCores)
			insTotal += len(s.InsecureCores)
			for _, c := range s.SecureCores {
				if int(c) >= res.SecureCores || seen[c] {
					t.Fatalf("%s: bad secure core %d", pol.Name(), c)
				}
				seen[c] = true
			}
			for _, c := range s.InsecureCores {
				if int(c) < res.SecureCores || int(c) >= cfg.Cores() || seen[c] {
					t.Fatalf("%s: bad insecure core %d", pol.Name(), c)
				}
				seen[c] = true
			}
		}
		if secTotal != res.SecureCores || insTotal != cfg.Cores()-res.SecureCores {
			t.Fatalf("%s: partition does not cover the machine (%d+%d cores)", pol.Name(), secTotal, insTotal)
		}
	}
	// The fairness floor ignores demand skew.
	part, err := FairnessFloor{}.Partition(res, []int{30, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Shares[0].SecureCores) != len(part.Shares[1].SecureCores) {
		t.Fatalf("fairness-floor gave unequal shares: %d vs %d",
			len(part.Shares[0].SecureCores), len(part.Shares[1].SecureCores))
	}
}

// The joint search must rank all policies with sane scores and be
// byte-identical at any worker count.
func TestJointSearchDeterministicAcrossWorkers(t *testing.T) {
	cfg := arch.TileGx72()
	tenants := testTenants(t, cfg)

	var reports []*Report
	for _, workers := range []int{1, 4} {
		rep, err := JointSearch(cfg, tenants, Options{Workers: workers, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	j0, _ := json.Marshal(reports[0])
	j1, _ := json.Marshal(reports[1])
	if string(j0) != string(j1) {
		t.Fatalf("joint search differs across worker counts:\n%s\n%s", j0, j1)
	}

	rep := reports[0]
	if len(rep.Policies) != len(Policies()) {
		t.Fatalf("%d policies scored", len(rep.Policies))
	}
	if rep.Best != rep.Policies[0].Policy {
		t.Fatalf("best %q is not the top-ranked policy %q", rep.Best, rep.Policies[0].Policy)
	}
	for i := 1; i < len(rep.Policies); i++ {
		if rep.Policies[i].Throughput > rep.Policies[i-1].Throughput {
			t.Fatalf("policies not ranked by throughput: %+v", rep.Policies)
		}
	}
	for _, p := range rep.Policies {
		if p.Throughput <= 0 || p.Throughput > float64(len(tenants))+1e-9 {
			t.Fatalf("%s: throughput %g out of range", p.Policy, p.Throughput)
		}
		if p.Fairness <= 0 || p.Fairness > 1+1e-9 {
			t.Fatalf("%s: fairness %g out of range", p.Policy, p.Fairness)
		}
		for _, ts := range p.Tenants {
			if ts.SoloCycles <= 0 || ts.CoCycles <= 0 {
				t.Fatalf("%s/%s: empty cycles %+v", p.Policy, ts.App, ts)
			}
			if ts.Slowdown < 1 {
				t.Fatalf("%s/%s: co-run faster than solo (%g)", p.Policy, ts.App, ts.Slowdown)
			}
			if ts.Demand <= 0 {
				t.Fatalf("%s/%s: no demand", p.Policy, ts.App)
			}
		}
	}
	if len(rep.Sections()) != 1+len(rep.Policies) {
		t.Fatalf("unexpected section count %d", len(rep.Sections()))
	}
}

func TestPolicyByName(t *testing.T) {
	ps, err := PolicyByName("")
	if err != nil || len(ps) != 3 {
		t.Fatalf("default policies: %v %v", ps, err)
	}
	ps, err = PolicyByName("fairness-floor")
	if err != nil || len(ps) != 1 || ps[0].Name() != "fairness-floor" {
		t.Fatalf("named policy: %v %v", ps, err)
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestJointSearchRejectsBadInput(t *testing.T) {
	cfg := arch.TileGx72()
	if _, err := JointSearch(cfg, nil, Options{}); err == nil {
		t.Fatal("accepted zero tenants")
	}
	if _, err := JointSearch(cfg, []Tenant{{Name: "a"}, {Name: "b"}}, Options{}); err == nil {
		t.Fatal("accepted nil traces")
	}
}

// MachineResources derives the regions without building a machine; it
// must read exactly what a machine configured by core.New(k).Configure
// holds, and fail for exactly the splits Configure rejects.
func TestMachineResourcesMatchesConfiguredMachine(t *testing.T) {
	for _, cfg := range []arch.Config{arch.TileGx72(), arch.TileGx72Scaled(12)} {
		m, err := sim.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := -1; k <= cfg.Cores()+1; k++ {
			got, gotErr := MachineResources(cfg, k)
			want := k
			if want <= 0 {
				want = cfg.Cores() / 2
			}
			m.Reset()
			wantErr := core.New(want).Configure(m)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("secure cores %d: MachineResources error %v, Configure error %v", k, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if got.SecureCores != want || got.Cfg != cfg {
				t.Fatalf("secure cores %d: resources %+v", k, got)
			}
			if !reflect.DeepEqual(got.SecureRegions, m.Part.RegionsOf(arch.Secure)) ||
				!reflect.DeepEqual(got.InsecureRegions, m.Part.RegionsOf(arch.Insecure)) {
				t.Fatalf("secure cores %d: regions %v / %v, configured machine %v / %v", k,
					got.SecureRegions, got.InsecureRegions, m.Part.RegionsOf(arch.Secure), m.Part.RegionsOf(arch.Insecure))
			}
		}
	}
	if _, err := MachineResources(arch.Config{}, 4); err == nil {
		t.Fatal("an invalid configuration must be rejected")
	}
}
