// Command ironhide-sim regenerates the paper's tables and figures on the
// simulated Tile-Gx72 multicore.
//
// Usage:
//
//	ironhide-sim [-scale f] [-stride n] [-apps "name,..."] [-parallel n]
//	             [-format text|csv|json] [-out dir] <experiment>
//
// Experiments:
//
//	table1   reconstructed system configuration (Table I)
//	fig1a    normalized geomean completion times (Figure 1a)
//	fig6     per-application completion + breakdown (Figure 6)
//	fig7     L1/L2 miss rates, MI6 vs IRONHIDE (Figure 7)
//	fig8     cluster reconfiguration heuristic study (Figure 8)
//	attack   Prime+Probe covert-channel validation (extension)
//	sweep    interactivity ablation (input-count sweep)
//	scenario multi-tenant dynamic-reconfiguration timeline (extension)
//	cotenancy joint-scheduler space-sharing policy study (extension)
//	policycmp resize-decision policy comparison: completion vs purge
//	          overhead vs leakage bound on one identical timeline
//	all      everything above
//
// -cotenancy switches the scenario experiment's resident secure processes
// from time-sharing the secure cluster to space-sharing it on disjoint
// sub-gangs placed by the joint scheduler. -reconfig-policy selects the
// scenario experiment's resize-decision policy (always, hysteresis or
// costaware; policycmp always runs all three).
//
// Every experiment is a grid of independent simulations fanned out over
// -parallel workers (default: all host cores), each cell seeded from its
// grid position, so any worker count emits identical reports. Grids record each application once and replay
// the captured operation stream across the model axis and the binding
// searches, and each exhaustive Optimal search can probe candidates on
// -search-workers concurrent workers. -format selects the
// emitter; -out writes one file per experiment report
// (<name>.txt/.csv/.json) instead of stdout. -cpuprofile writes a pprof
// CPU profile of the run for the performance workflow documented in the
// README.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"ironhide/internal/apps"
	"ironhide/internal/arch"
	"ironhide/internal/experiments"
	"ironhide/internal/metrics"
)

// experimentNames lists the experiments in presentation order; "all" runs
// every one of them off a single application×model matrix.
var experimentNames = []string{"table1", "fig1a", "fig6", "fig7", "fig8", "attack", "sweep", "scenario", "cotenancy", "policycmp"}

func main() {
	scale := flag.Float64("scale", 1.0, "round-count scale factor (smaller = faster, noisier)")
	dilation := flag.Int64("dilation", 12, "protocol-constant dilation divisor (1 = full-fidelity per-event costs)")
	stride := flag.Int("stride", 2, "stride of fig8's exhaustive Optimal search")
	appsFlag := flag.String("apps", "", "comma-separated application aliases, e.g. \"aes-query,memcached-os\" (default: all nine)")
	trials := flag.Int("trials", 96, "covert-channel trials for the attack experiment")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker count for the job grids (1 = sequential; results are identical at any count)")
	searchWorkers := flag.Int("search-workers", 1, "worker count for each exhaustive Optimal binding search (1 = sequential; results are identical at any count)")
	coTenancy := flag.Bool("cotenancy", false, "space-share the scenario experiment's residents on disjoint sub-gangs (joint scheduler) instead of time-sharing")
	reconfigPolicy := flag.String("reconfig-policy", "", "scenario resize-decision policy: always, hysteresis or costaware (default: always)")
	format := flag.String("format", "text", "report format: text, csv or json")
	outDir := flag.String("out", "", "write one <experiment>.<ext> file per report into this directory instead of stdout")
	seed := flag.Int64("seed", 42, "base seed for deterministic runs and the covert-channel secret")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the experiment run to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ironhide-sim [flags] {%s|all}\n", strings.Join(experimentNames, "|"))
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	// Validate every input — format, experiment names, applications, and
	// the output directory — before any experiment runs, so a typo fails
	// in milliseconds instead of after a long simulation.
	emit, ext, err := metrics.EmitterFor(*format)
	if err != nil {
		fatal(err)
	}
	names, err := resolveExperiments(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	appNames, err := resolveApps(*appsFlag)
	if err != nil {
		fatal(err)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}

	cfg := arch.TileGx72Scaled(*dilation)
	ec := experiments.Config{
		Scale: *scale, Stride: *stride, Parallel: *parallel, BaseSeed: *seed,
		SearchWorkers: *searchWorkers, CoTenancy: *coTenancy,
		ReconfigPolicy: *reconfigPolicy, Apps: appNames,
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		var once sync.Once
		stopProfile = func() {
			once.Do(func() {
				pprof.StopCPUProfile()
				f.Close()
			})
		}
		defer stopProfile()
	}

	reports, err := build(names, cfg, ec, *trials)
	if err != nil {
		fatal(err)
	}
	if err := write(reports, emit, ext, *outDir); err != nil {
		fatal(err)
	}
}

// stopProfile flushes the active CPU profile, if any; fatal runs it so an
// errored run still leaves a parseable profile (os.Exit skips defers).
var stopProfile = func() {}

// resolveExperiments expands the positional argument to the experiment
// list, rejecting unknown names before anything has run.
func resolveExperiments(arg string) ([]string, error) {
	if arg == "all" {
		return experimentNames, nil
	}
	for _, n := range experimentNames {
		if n == arg {
			return []string{arg}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (want %s|all)", arg, strings.Join(experimentNames, "|"))
}

// resolveApps expands the comma-separated -apps flag to paper labels,
// rejecting unknown aliases before anything has run.
func resolveApps(flagValue string) ([]string, error) {
	if flagValue == "" {
		return nil, nil
	}
	var out []string
	for _, name := range strings.Split(flagValue, ",") {
		entry, err := apps.Find(name)
		if err != nil {
			return nil, err
		}
		out = append(out, entry.Name)
	}
	return out, nil
}

func fatal(err error) {
	stopProfile()
	fmt.Fprintln(os.Stderr, "ironhide-sim:", err)
	os.Exit(1)
}

// build measures the named experiments and returns their reports. The
// figure experiments that share the application×model matrix (fig1a, fig6,
// fig7) run it once.
func build(names []string, cfg arch.Config, ec experiments.Config, trials int) ([]metrics.Tabular, error) {
	var mx *experiments.Matrix
	matrix := func() (*experiments.Matrix, error) {
		if mx != nil {
			return mx, nil
		}
		var err error
		mx, err = experiments.RunMatrix(cfg, ec)
		return mx, err
	}

	var reports []metrics.Tabular
	for _, name := range names {
		start := time.Now()
		var rep metrics.Tabular
		var err error
		switch name {
		case "table1":
			rep = experiments.BuildTable1(cfg)
		case "fig1a":
			if m, merr := matrix(); merr != nil {
				err = merr
			} else {
				rep = m.BuildFig1a()
			}
		case "fig6":
			if m, merr := matrix(); merr != nil {
				err = merr
			} else {
				rep = m.BuildFig6()
			}
		case "fig7":
			if m, merr := matrix(); merr != nil {
				err = merr
			} else {
				rep = m.BuildFig7()
			}
		case "fig8":
			rep, err = experiments.BuildFig8(cfg, ec)
		case "attack":
			rep, err = experiments.BuildAttack(ec, trials)
		case "sweep":
			rep, err = experiments.BuildSweep(cfg, ec, []int{30, 60, 120, 240})
		case "scenario":
			rep, err = experiments.BuildScenario(cfg, ec)
		case "cotenancy":
			rep, err = experiments.BuildCoTenancy(cfg, ec)
		case "policycmp":
			rep, err = experiments.BuildPolicyCmp(cfg, ec)
		default:
			err = fmt.Errorf("unknown experiment %q", name)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		reports = append(reports, rep)
		// Timing goes to stderr so stdout stays deterministic across runs
		// and worker counts.
		fmt.Fprintf(os.Stderr, "[%s completed in %s]\n", name, time.Since(start).Round(time.Millisecond))
	}
	return reports, nil
}

// write emits the reports: one file per report under dir when set (main
// created it before any experiment ran), otherwise sequentially to stdout
// separated by blank lines.
func write(reports []metrics.Tabular, emit metrics.Emitter, ext, dir string) error {
	if dir == "" {
		for i, rep := range reports {
			if i > 0 {
				fmt.Println()
			}
			if err := emit(os.Stdout, rep); err != nil {
				return err
			}
		}
		return nil
	}
	for _, rep := range reports {
		path := filepath.Join(dir, rep.ReportName()+ext)
		if err := emitFile(path, rep, emit); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return nil
}

func emitFile(path string, rep metrics.Tabular, emit metrics.Emitter) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
