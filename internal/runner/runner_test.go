package runner

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"ironhide/internal/arch"
	"ironhide/internal/driver"
	"ironhide/internal/enclave"
	"ironhide/internal/graphalg"
	"ironhide/internal/graphgen"
	"ironhide/internal/workload"
)

func TestMapOrderedResults(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{0, 1, 4, 16, 200} {
		got, err := Map(workers, items, func(i, v int) (int, error) { return v * 2, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != 2*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, 2*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map[int, int](8, nil, func(i, v int) (int, error) { t.Fatal("called"); return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty map = (%v, %v)", got, err)
	}
}

func TestMapFirstErrorByInputOrder(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	var calls atomic.Int32
	got, err := Map(4, items, func(i, v int) (int, error) {
		calls.Add(1)
		if v == 2 || v == 5 {
			return 0, fmt.Errorf("item %d failed", v)
		}
		return v, nil
	})
	if err == nil || !strings.Contains(err.Error(), "item 2") {
		t.Fatalf("err = %v, want the first failure by input order", err)
	}
	// Every item is attempted even after a failure, and successes land at
	// their index.
	if int(calls.Load()) != len(items) {
		t.Fatalf("%d calls, want %d", calls.Load(), len(items))
	}
	if got[7] != 7 || got[0] != 0 {
		t.Fatalf("successful results lost: %v", got)
	}
}

// tinyApp builds a small, fast interactive application for runner tests.
func tinyApp() *workload.App {
	g := graphgen.NewRoadNetwork(24, 24, 60, 3)
	gen := graphgen.NewGenerator(g, 24, 7)
	return &workload.App{
		Name: "tiny", Class: workload.User,
		Insecure: gen,
		Secure:   graphalg.NewSSSP(gen, 0, 2),
		Rounds:   12, Warmup: 3, ProfileRounds: 4,
		PayloadBytes: 512, ReplyBytes: 128,
	}
}

// tinyGrid replays one capture of tinyApp under three models.
func tinyGrid(t *testing.T) []Job {
	t.Helper()
	tr, err := driver.CaptureTrace(arch.TileGx72(), tinyApp, driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	models := []func() enclave.Model{
		func() enclave.Model { return enclave.Insecure{} },
		func() enclave.Model { return enclave.SGXLike{} },
		func() enclave.Model { return enclave.MulticoreMI6{} },
	}
	var jobs []Job
	for i, model := range models {
		jobs = append(jobs, Job{
			Key:   fmt.Sprintf("tiny/%d", i),
			Model: model,
			Opts:  driver.Options{FixedSecureCores: 16},
			Trace: tr,
		})
	}
	return jobs
}

// The tentpole property: a grid's results are identical at any worker
// count, measurement for measurement.
func TestRunnerParallelMatchesSequential(t *testing.T) {
	cfg := arch.TileGx72()
	seq := Runner{Cfg: cfg, Workers: 1}
	par := Runner{Cfg: cfg, Workers: 8}
	want, err := seq.Run(tinyGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	got, err := par.Run(tinyGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Index != i {
			t.Fatalf("result %d carries index %d", i, got[i].Index)
		}
		if !reflect.DeepEqual(want[i].Res, got[i].Res) {
			t.Fatalf("job %d diverged:\nseq: %+v\npar: %+v", i, want[i].Res, got[i].Res)
		}
	}
}

func TestRunnerSeedsAreDeterministic(t *testing.T) {
	r := Runner{}
	for i := 0; i < 64; i++ {
		s := r.seedFor(i)
		if s <= 0 {
			t.Fatalf("seedFor(%d) = %d, want positive", i, s)
		}
		if s != r.seedFor(i) {
			t.Fatalf("seedFor(%d) not stable", i)
		}
		if i > 0 && s == r.seedFor(i-1) {
			t.Fatalf("seedFor(%d) collides with predecessor", i)
		}
	}
	other := Runner{BaseSeed: 7}
	if r.seedFor(0) == other.seedFor(0) {
		t.Fatal("base seed ignored")
	}
}

func TestRunnerReportsJobFailures(t *testing.T) {
	cfg := arch.TileGx72()
	jobs := tinyGrid(t)
	broken := Job{
		Key: "broken", // no Trace to replay
		Model: func() enclave.Model {
			return enclave.Insecure{}
		},
	}
	jobs = append([]Job{broken}, jobs...)
	r := Runner{Cfg: cfg, Workers: 4}
	results, err := r.Run(jobs)
	if err == nil || err.Error() != `job "broken": no trace` {
		t.Fatalf("err = %v, want the broken job's failure", err)
	}
	if results[0].Err == nil {
		t.Fatal("broken job's result lacks its error")
	}
	for _, res := range results[1:] {
		if res.Err != nil || res.Res == nil {
			t.Fatalf("healthy job %q lost: %+v", res.Job.Key, res)
		}
	}
}
