// Command perfbench is the repository's benchmark of the live path:
// session commands through the real handler stack, durable churn on the
// write-ahead journal, storm fan-out across equivalence classes, and
// frames on the data plane. Run it through run.py, which builds it:
//
//	python3 perfbench/run.py --workload create-mem --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures end to end and prints the end-to-end
// metrics; with --trace 1 it also drives the same seeded command stream
// through the public layer calls with a span around each and prints the
// per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. A failed output
// check prints "correct": false and exits with status 1.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with --trace 0. p50_ms/tail_ms time the workload's unit of
// work: a create (create-mem, tail p90), any command (durable-churn,
// tail p99), a fault (storm-fanout, tail p90) or one chain run (frames,
// tail p90).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by every workload
// with --trace 1. A layer a workload does not run reads 0.
var perLayer = []metricDef{
	{"cmd.create_p50_ms", "ms"},
	{"cmd.create_p99_ms", "ms"},
	{"cmd.delete_p50_ms", "ms"},
	{"cmd.read_p50_ms", "ms"},
	{"cmd.fault_p50_ms", "ms"},
	{"cmd.fault_p99_ms", "ms"},
	{"cmd.reevaluate_p50_ms", "ms"},
	{"cmd.fail_frac", "frac"},
	{"durable.recover_s", "s"},
	{"durable.state_mb", "MB"},
	{"profile.decode_us", "us"},
	{"httpapi.encode_us", "us"},
	{"session.create_us", "us"},
	{"session.get_us", "us"},
	{"session.delete_us", "us"},
	{"session.fault_us", "us"},
	{"session.reevaluate_us", "us"},
	{"storm.class_hit_frac", "frac"},
	{"core.selects_per_create", "count"},
	{"core.select_us", "us"},
	{"journal.append_us", "us"},
	{"journal.fsync_us", "us"},
	{"journal.syncs_per_append", "count"},
	{"journal.snapshots", "count"},
	{"journal.bytes_per_cmd", "B"},
	{"gen.late_p99_ms", "ms"},
	{"storm.fanout_ms", "ms"},
	{"storm.selects_per_storm", "count"},
	{"storm.replanned_per_storm", "count"},
	{"storm.us_per_member", "us"},
	{"pipeline.allocs_per_frame", "count"},
	{"pipeline.delivered_frac", "frac"},
	{"pipeline.frames_per_s", "1/s"},
	{"pipeline.build_us", "us"},
	{"pipeline.submit_us", "us"},
	{"pipeline.wait_ms", "ms"},
	{"go.gc_cpu_frac", "frac"},
	{"go.allocs_per_op", "count"},
	{"go.bytes_per_op", "B"},
	{"trace.unexplained_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// report is one run's outcome.
type report struct {
	attempted, failed int
	checks            []string // failed output checks
	metrics           map[string]float64
	notes             []string // human-readable lines
	spans             []span   // the traced run's spans, written out at the end
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// check records an output check; a false one fails the run.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count adds a phase's attempts and failures to the run's totals.
func (r *report) count(p *phaseResult) {
	r.attempted += p.attempts
	r.failed += p.failed
	for _, e := range p.errs {
		r.note("failure (%s path): %s", p.path, e)
	}
}

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds float64
	traced  bool
}

func (o options) dur() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// stateRoot holds durable state directories: under the build directory,
// so a run writes only inside its checkout.
const stateRoot = ".bench_build/state"

type workloadFunc func(o options, r *report) error

var workloads = map[string]workloadFunc{
	"create-mem":    runCreateMem,
	"durable-churn": runDurableChurn,
	"storm-fanout":  runStormFanout,
	"frames":        runFrames,
}

func main() {
	name := flag.String("workload", "", "workload to run: create-mem, durable-churn, storm-fanout, frames")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, traced: *traced == 1}
	r := newReport()
	for _, line := range machineInfo() {
		fmt.Println(line)
	}
	if err := run(o, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if o.traced {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, o.seed))
		if err := writeSpans(path, r.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		r.note("%d spans written to %s", len(r.spans), path)
	}
	for _, line := range r.notes {
		fmt.Println(line)
	}
	for _, c := range r.checks {
		fmt.Println("CHECK FAILED:", c)
	}
	if r.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: the run attempted nothing")
		os.Exit(1)
	}
	fmt.Printf("fail_frac %.6f (%d failed of %d attempted)\n",
		float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	out := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{Correct: len(r.checks) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]json.RawMessage{}}
	for _, d := range defs {
		v := r.metrics[d.name]
		fmt.Printf("%-28s %14.6f %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = json.RawMessage(fmt.Sprintf(`{"value": %s, "unit": %q}`, formatValue(v), d.unit))
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// writeSpans writes spans as JSON lines: the command's ID, the span's
// name and parent, and its start and duration in microseconds from the
// first span.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	var t0 time.Time
	for i, s := range spans {
		if i == 0 || s.start.Before(t0) {
			t0 = s.start
		}
	}
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		_ = enc.Encode(struct { // encodes into a bytes.Buffer
			Cmd     string  `json:"cmd"`
			Name    string  `json:"name"`
			Parent  string  `json:"parent,omitempty"`
			StartUS float64 `json:"start_us"`
			DurUS   float64 `json:"dur_us"`
		}{s.cmdID, s.name, s.parent, us(s.start.Sub(t0)), us(s.end.Sub(s.start))})
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// formatValue prints a measured value with all its digits.
func formatValue(v float64) string {
	b, _ := json.Marshal(v) // finite by construction
	return string(b)
}

// machineInfo describes where the run happened: the figures are this
// host's, not a device's.
func machineInfo() []string {
	return []string{
		fmt.Sprintf("machine: cores=%d gomaxprocs=%d cpu=%q go=%s os=%s/%s",
			runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH),
		fmt.Sprintf("state-dir filesystem: %s", fsType(stateRoot)),
		"latencies are this host's, measured in process through httptest (no TCP), not a device's",
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir: the mount with the longest
// path prefix of dir in /proc/mounts.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]+" on "+mp
		}
	}
	return typ
}

// opSummary renders per-op latency lines for the human-readable output.
func opSummary(r *report, label string, lat latencies) {
	ops := make([]string, 0, len(lat))
	for op := range lat {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		xs := lat[op]
		r.note("%s %-10s n=%-7d p50=%.4fms p99=%.4fms", label, op, len(xs), quantile(xs, 0.5), quantile(xs, 0.99))
	}
}
