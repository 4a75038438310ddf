// Command benchmark measures ironhide end to end and layer by layer. It
// drives four workloads through the public APIs (the experiment matrix
// behind ironhide-sim, warm and cold serving through ironhide-serve's
// handlers and router, and streamed scenario timelines), checks every
// operation's output, and prints each metric by name with its unit. A
// separate traced run re-issues each workload's operations as direct
// calls to the layers and reports per-layer times and counts.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-spans F] [-out F]
//	bash benchmark/run.sh -compare a.json b.json
//
// Without -workload every workload runs, each in a fresh child process so
// pools, caches and peak RSS do not carry over. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: every workload, each in its own process)")
	seed := fs.Int64("seed", 1, "seed every workload input is generated from")
	seconds := fs.Float64("seconds", 20, "length of each measured window")
	traced := fs.Int("trace", 0, "1 runs the traced layer-by-layer run instead of the end-to-end one")
	spansPath := fs.String("spans", "", "with -trace 1, write the spans to this JSON file")
	outPath := fs.String("out", "", "append each workload's result record to this JSON Lines file")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	child := fs.Bool("child", false, "run one workload in this process and print its record (used by the parent)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare a.json b.json")
			return 2
		}
		code, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 2
		}
		return code
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "-trace takes 0 or 1")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		selected = []*workload{w}
	}
	opts := runOpts{seconds: *seconds, trace: *traced == 1, setups: 3, setupSeconds: 3, spans: *spansPath}
	if *child {
		r := run(selected[0], *seed, opts)
		if err := json.NewEncoder(stdout).Encode(r); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	var results []*result
	for _, w := range selected {
		o := opts
		if o.spans != "" && len(selected) > 1 {
			o.spans = strings.TrimSuffix(o.spans, ".json") + "." + w.name + ".json"
		}
		fmt.Fprintf(stderr, "running %s (seed %d, %gs window, trace %d)\n", w.name, *seed, *seconds, *traced)
		r := runChild(w, *seed, o, stderr)
		results = append(results, r)
		printResult(stdout, w, r, o.trace)
		if *outPath != "" {
			if err := appendRecord(*outPath, r); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
	}
	return printSummary(stdout, results, opts.trace)
}

// runChild runs one workload in a fresh process of this binary.
func runChild(w *workload, seed int64, o runOpts, stderr io.Writer) *result {
	failed := func(err error) *result {
		r := &result{Workload: w.name, Seed: seed, Trace: o.trace, Attempted: 1, Metrics: map[string]value{}}
		r.fail(err)
		return r
	}
	exe, err := os.Executable()
	if err != nil {
		return failed(err)
	}
	// A generous cap that still stops a wedged child: set-up, the window,
	// and the traced run's probes take well under this.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(2*o.seconds)*time.Second+100*time.Second)
	defer cancel()
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", "0"}
	if o.trace {
		args[len(args)-1] = "1"
		if o.spans != "" {
			args = append(args, "-spans", o.spans)
		}
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return failed(fmt.Errorf("%s child: %w", w.name, err))
	}
	var r result
	if err := json.Unmarshal(lastLine(out.Bytes()), &r); err != nil {
		return failed(fmt.Errorf("%s child printed no record: %w", w.name, err))
	}
	return &r
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

func printResult(w io.Writer, wl *workload, r *result, traced bool) {
	mode := "end to end"
	if traced {
		mode = "traced, per layer"
	}
	fmt.Fprintf(w, "%s (%s; op = one %s, latency per %s; seed %d): attempted %d, failed %d\n",
		r.Workload, mode, wl.opName, wl.sample, r.Seed, r.Attempted, r.Failed)
	for _, d := range defsFor(traced) {
		if v, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-28s %14.4f %-6s n=%d\n", d.Name, v.Value, v.Unit, v.N)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}

// printSummary prints the closing JSON line and returns the exit code.
// With several workloads each metric is keyed "workload/metric".
func printSummary(w io.Writer, results []*result, traced bool) int {
	s := summary{Correct: true, Metrics: map[string]summaryItem{}}
	for _, r := range results {
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		for _, d := range defsFor(traced) {
			v, ok := r.Metrics[d.Name]
			if !ok {
				s.Correct = false
				continue
			}
			key := d.Name
			if len(results) > 1 {
				key = r.Workload + "/" + d.Name
			}
			s.Metrics[key] = summaryItem{Value: v.Value, Unit: v.Unit}
		}
	}
	if s.Attempted == 0 {
		s.Attempted = 1
	}
	if s.Failed > 0 {
		s.Correct = false
	}
	b, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintln(w, `{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`)
		return 1
	}
	fmt.Fprintln(w, string(b))
	if !s.Correct {
		return 1
	}
	return 0
}

func appendRecord(path string, r *result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// readRecords reads a JSON Lines file of result records.
func readRecords(path string) ([]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, &r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, errors.New(path + ": no records")
	}
	return out, nil
}
