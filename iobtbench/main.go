// Command iobtbench is the repository benchmark. It runs one named
// workload in-process against the simulator's public APIs, times those
// calls from outside, checks the workload's outputs, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root):
//
//	bash iobtbench/run.sh --workload mission-classic --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it makes one untraced and one traced pass and reports
// the per-layer metrics, writing the traced pass's spans to
// .bench_build/spans/ when it ends. iobtbench/spec.json records the
// workload parameters, the layer-to-metric mapping and the baseline;
// the "reference host" of the comments is the 2-vCPU host it describes.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workloads maps each workload name to its runner. A runner measures
// for about cfg.seconds and fills the report.
var workloads = map[string]func(cfg config, rep *report) error{
	"mission-classic":    runClassic,
	"cop-gossip":         runCopGossip,
	"dissemination-bare": runDissemination,
	"service-flood":      runServiceFlood,
}

// config is one invocation's arguments.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// report collects a workload's operations and metrics.
type report struct {
	attempted, failed int
	endToEnd          map[string]float64
	layers            map[string]float64
	spans             *spanLog
}

// check counts one checked operation; a false ok counts it failed and
// explains why on standard error.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "iobtbench: check failed: "+format+"\n", args...)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "iobtbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("iobtbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.IntVar(&cfg.seconds, "seconds", 20, "measurement length in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %v)", cfg.workload, names)
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1

	declared, err := declaredMetrics("BENCHMARK.json", cfg.trace)
	if err != nil {
		return err
	}
	rep := &report{endToEnd: map[string]float64{}, layers: map[string]float64{}}
	if cfg.trace {
		rep.spans = newSpanLog()
	}
	if err := runner(cfg, rep); err != nil {
		return err
	}
	if _, ok := rep.endToEnd["peak_rss_mb"]; !ok {
		rep.endToEnd["peak_rss_mb"] = peakRSSMB()
	}

	values := rep.endToEnd
	if cfg.trace {
		values = rep.layers
		path := fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", cfg.workload, cfg.seed)
		if err := rep.spans.write(path); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", rep.spans.len(), path)
	}
	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, m := range declared {
		v, ok := values[m.Name]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload %s does not produce end-to-end metric %s", cfg.workload, m.Name)
		}
		// A layer the workload never enters reports zero.
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Printf("%-32s %16.6f %s\n", m.Name, v, m.Unit)
	}
	if res.Attempted == 0 {
		return errors.New("no operations were attempted")
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// declaredMetrics reads the end-to-end or per-layer metric list from
// BENCHMARK.json, so names and units have one source.
func declaredMetrics(path string, perLayer bool) ([]metricSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read metric list: %w", err)
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if perLayer {
		return spec.PerLayer, nil
	}
	return spec.EndToEnd, nil
}

// peakRSSMB is the process's resident high-water mark so far. Each
// invocation runs one workload, so it is that workload's peak; a runner
// whose checks cost memory of their own reads it before checking.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// allocMB returns the bytes allocated so far, in MB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// quantile returns the nearest-rank q-quantile of vs (0 when empty).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median returns the middle of vs, averaging the two middle values of
// an even count (0 when empty).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// repsFor is how many runs of a job fit in the measurement window:
// at least lo, sized from the job's nominal wall time. It depends only
// on the arguments, so the same arguments always run the same inputs.
func repsFor(cfg config, nominal time.Duration, lo int) int {
	n := int(math.Round(float64(cfg.seconds) * float64(time.Second) / float64(nominal)))
	if n < lo {
		n = lo
	}
	return n
}

// ceilDiv is a/b rounded up, for spreading a sample count over b
// repetitions.
func ceilDiv(a, b int) int { return (a + b - 1) / b }
