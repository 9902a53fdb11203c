// Command perfbench is progconv's end-to-end benchmark. It runs one
// named workload against the code it was built from, checks every
// job's output with an oracle that does not come from the converter,
// and prints its metrics by name with their units; the last line of
// standard output is one JSON result object.
//
//	perfbench --workload service-warm --seed 1 --seconds 10 --trace 0 \
//	    --daemon .bench_build/progconvd
//
// Workloads: service-warm, service-cold (a progconvd process over
// loopback HTTP), verify-large, translate-large (in-process). With
// --trace 1 the run reports per-layer metrics instead, from spans the
// benchmark records around its own calls into each layer, and writes
// the spans to --out. perfbench/run.sh builds the daemon and this
// command from the checkout and runs it; see perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// config is one invocation's settings.
type config struct {
	Workload string
	Seed     int64
	Seconds  time.Duration
	Trace    bool
	Daemon   string // progconvd binary (service workloads)
	Out      string // directory traced runs write their spans to
	Commit   string
}

// stamp identifies the conditions a result was measured under.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measurement is what a workload hands back: its job accounting, its
// metric values by name, and notes for the human-readable block.
type measurement struct {
	attempted, failed int
	values            map[string]float64
	notes             []string
}

// Each run repeats its set-up at least minSetups times, and until the
// repeats have taken setupBudget (at most maxSetups); setup_s is the
// median, which steadies a figure a single set-up would leave noisy.
const (
	minSetups   = 3
	maxSetups   = 100
	setupBudget = time.Second
)

// repeatSetup times setup repeatedly under that rule; between repeats
// it calls teardown, untimed, to release the previous set-up.
func repeatSetup(setup, teardown func() error) ([]time.Duration, error) {
	var ds []time.Duration
	var total time.Duration
	for len(ds) < minSetups || (total < setupBudget && len(ds) < maxSetups) {
		if len(ds) > 0 {
			if err := teardown(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		d := time.Since(start)
		ds = append(ds, d)
		total += d
	}
	return ds, nil
}

func main() {
	var cfg config
	var seconds int
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "service-warm, service-cold, verify-large or translate-large")
	flag.Int64Var(&cfg.Seed, "seed", 1, "input generator seed")
	flag.IntVar(&seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&cfg.Daemon, "daemon", "", "progconvd binary for the service workloads")
	flag.StringVar(&cfg.Out, "out", ".bench_build", "directory the traced run writes its spans to")
	flag.StringVar(&cfg.Commit, "commit", "unknown", "identity of the code under test, for the stamp")
	flag.Parse()
	cfg.Seconds = time.Duration(seconds) * time.Second
	cfg.Trace = trace == 1
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}

	st := stamp{
		Workload: cfg.Workload, Seed: cfg.Seed, Trace: cfg.Trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: cfg.Commit,
	}
	var m *measurement
	var err error
	switch cfg.Workload {
	case "service-warm", "service-cold":
		m, err = runService(cfg, st)
	case "verify-large":
		m, err = runVerify(cfg, st)
	case "translate-large":
		m, err = runTranslate(cfg, st)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, st, m); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// report prints the human-readable block and then the JSON result.
func report(w io.Writer, st stamp, m *measurement) error {
	defs := endToEnd
	if st.Trace {
		defs = perLayer
	}
	res := result{
		Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed,
		Metrics: map[string]metric{},
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d trace=%v nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		st.Workload, st.Seed, st.Trace, st.NProc, st.GOMAXPROCS, st.GoVersion, st.Commit)
	for _, d := range defs {
		v, ok := m.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, v, d.Unit)
	}
	if !st.Trace {
		fmt.Fprintf(w, "  %-28s %14.6g ratio (%d of %d jobs)\n", "failed_ratio",
			float64(m.failed)/float64(max(m.attempted, 1)), m.failed, m.attempted)
	}
	for _, n := range m.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if m.attempted < 1 {
		return fmt.Errorf("no job was attempted")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// window is the outcome of one closed-loop measurement.
type window struct {
	lat       []float64   // latency of every job that passed the oracle, ns
	done      []time.Time // when each of those jobs completed
	attempted int
	failed    int
	elapsed   time.Duration
}

// jobFunc runs job i and returns its latency; an error (transport,
// refusal, or an oracle rejection) marks the job failed.
type jobFunc func(client, i int) (time.Duration, error)

// closedLoop runs clients callers, each sending its next job only when
// the previous one completes, until d has passed; jobs in flight at
// the deadline finish and count. Job indices start at first. With one
// caller, the loop runs past the deadline until the job count is a
// multiple of whole: the in-process workloads alternate two plan
// shapes, and ending on a whole pair keeps their mix at exactly half
// and half, so the median does not shift with the count's parity.
func closedLoop(clients int, d time.Duration, first, whole int, do jobFunc) window {
	var (
		next   atomic.Int64
		mu     sync.Mutex
		w      window
		wg     sync.WaitGroup
		logged int
	)
	next.Store(int64(first))
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < d || (int(next.Load())-first)%whole != 0 {
				i := int(next.Add(1) - 1)
				lat, err := do(c, i)
				mu.Lock()
				w.attempted++
				if err != nil {
					w.failed++
					if logged < 5 {
						logged++
						fmt.Fprintf(os.Stderr, "perfbench: job %d failed: %v\n", i, err)
					}
				} else {
					w.lat = append(w.lat, float64(lat))
					w.done = append(w.done, time.Now())
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	return w
}

// latencyMetrics fills the per-job latency and throughput metrics of a
// window. busy, when non-zero, replaces the wall-clock window as the
// throughput denominator (in-process workloads exclude oracle time).
func latencyMetrics(v map[string]float64, w window, busy time.Duration) {
	el := w.elapsed
	if busy > 0 {
		el = busy
	}
	v["jobs_per_s"] = float64(len(w.lat)) / el.Seconds()
	v["job_p50_ms"] = ms(quantile(w.lat, 0.50))
	v["job_p90_ms"] = ms(quantile(w.lat, 0.90))
	v["job_p99_ms"] = ms(quantile(w.lat, 0.99))
}

// tailNote records how many samples back the tail percentiles: a
// percentile needs at least ten samples beyond it to be a real tail.
func tailNote(w window) string {
	n := len(w.lat)
	note := fmt.Sprintf("%d timed jobs in %.1fs", n, w.elapsed.Seconds())
	switch {
	case n < 100:
		note += "; p90 and p99 have fewer than 10 samples beyond them, read them as the slow tail, not as percentiles"
	case n < 1000:
		note += "; p99 has fewer than 10 samples beyond it"
	}
	return note
}

// medianSeconds is the median of set-up durations, in seconds.
func medianSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}
