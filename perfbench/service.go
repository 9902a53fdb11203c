package main

// The service workloads: two closed-loop clients submit jobs to a
// progconvd process over loopback HTTP. The untraced run drives the
// daemon binary built from the checkout; the traced run hosts the same
// server (serve.Server with the daemon's default configuration) in this
// process, behind a handler that records a span per request, so the
// benchmark can also time the layers behind it.
//
// Completion detection: each client follows the job's event stream
// (GET /v1/jobs/{id}/events), which the daemon ends the moment the job
// finishes, so completion is seen within a loopback round trip rather
// than at the 50 ms polling period of client.Wait.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"progconv"
	"progconv/internal/plancache"
	"progconv/internal/serve"
	"progconv/internal/wire"
)

// serviceClients is the closed loop's client count (one connection
// each), matching the two cores the benchmark was sized on.
const serviceClients = 2

// host is a running conversion service.
type host struct {
	base  string
	pid   int              // process hosting the server
	cache *plancache.Cache // in-process hosts only
	stop  func() error
}

// once wraps a stop function so that only its first call acts; later
// calls return the first call's error.
func once(stop func() error) func() error {
	var o sync.Once
	var err error
	return func() error {
		o.Do(func() { err = stop() })
		return err
	}
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon starts the progconvd binary (cache on, default queue and
// runners) and returns once /readyz answers.
func startDaemon(bin string) (*host, error) {
	if bin == "" {
		return nil, errors.New("the service workloads need --daemon")
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	// The daemon dies with the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	exited := make(chan struct{})
	var waitErr error
	go func() {
		waitErr = cmd.Wait()
		close(exited)
	}()
	stop := once(func() error {
		cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-exited:
		case <-time.After(60 * time.Second):
			cmd.Process.Kill()
			<-exited
		}
		err := waitErr
		// A SIGTERM that lands before the daemon installs its handler
		// ends it by the signal; that is a clean stop too.
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				err = nil
			}
		}
		if err != nil {
			return fmt.Errorf("stopping progconvd: %w; stderr: %s", err, stderr.String())
		}
		return nil
	})
	h := &host{base: "http://" + addr, pid: cmd.Process.Pid, stop: stop}
	if err := waitReady(h.base, exited); err != nil {
		stop()
		return nil, fmt.Errorf("%w; progconvd stderr: %s", err, stderr.String())
	}
	return h, nil
}

// waitReady polls /readyz every 100µs until it answers 200, so the
// set-up time it ends is not rounded up to a coarse poll period. A
// close of exited means the server process is gone.
func waitReady(base string, exited <-chan struct{}) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			return errors.New("progconvd exited before it was ready")
		default:
		}
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	return errors.New("progconvd was not ready within 30s")
}

// spanHandler records one span per traced request around the server's
// handler: the submission (decode, validate, parse, enqueue), the
// event stream (the wait for completion) and the report fetch — the
// three requests runJob sends with the X-Bench headers.
type spanHandler struct {
	next http.Handler
	rec  atomic.Pointer[recorder]
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := h.rec.Load()
	job, err := strconv.Atoi(r.Header.Get("X-Bench-Job"))
	if rec == nil || err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Span"))
	name := "serve.submit"
	switch {
	case strings.HasSuffix(r.URL.Path, "/events"):
		name = "serve.events"
	case strings.HasSuffix(r.URL.Path, "/report"):
		name = "serve.complete"
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	rec.add(name, job, parent, rec.at(start), rec.at(time.Now()))
}

// startInProcess hosts serve.Server in this process with the
// configuration progconvd builds from its default flags.
func startInProcess() (*host, *spanHandler, error) {
	cache := progconv.NewCache(0)
	srv := serve.New(serve.Config{Cache: cache})
	sh := &spanHandler{next: srv.Handler()}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: sh}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(l) }()
	stop := once(func() error {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		err := srv.Drain(ctx)
		if serr := hs.Shutdown(ctx); err == nil {
			err = serr
		}
		<-served
		return err
	})
	h := &host{base: "http://" + l.Addr().String(), pid: selfPID(), cache: cache, stop: stop}
	if err := waitReady(h.base, nil); err != nil {
		stop()
		return nil, nil, err
	}
	return h, sh, nil
}

// newHTTPClient returns the client every closed-loop caller shares:
// at most one connection per caller.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serviceClients,
		MaxIdleConnsPerHost: serviceClients,
		DisableCompression:  true,
	}}
}

// submission is one finished job as the client saw it.
type submission struct {
	id       string
	report   []byte
	lat      time.Duration
	finished time.Time // when the event stream ended
}

// runJob submits one job, follows its event stream to the end, and
// fetches the report. traceJob/traceSpan, when traceSpan is non-zero,
// ride along as headers so the server-side spans join the job's tree.
func runJob(hc *http.Client, base string, body []byte, traceJob, traceSpan int) (submission, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	do := func(method, url string, body []byte) (*http.Response, error) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if traceSpan != 0 {
			req.Header.Set("X-Bench-Job", strconv.Itoa(traceJob))
			req.Header.Set("X-Bench-Span", strconv.Itoa(traceSpan))
		}
		return hc.Do(req)
	}
	var s submission
	start := time.Now()
	resp, err := do(http.MethodPost, base+"/v1/jobs", body)
	if err != nil {
		return s, err
	}
	var st wire.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		return s, fmt.Errorf("submit: HTTP %d (%v)", resp.StatusCode, err)
	}
	s.id = st.ID

	resp, err = do(http.MethodGet, base+"/v1/jobs/"+s.id+"/events?omit_timing=1", nil)
	if err != nil {
		return s, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return s, fmt.Errorf("following events: %w", err)
	}
	s.finished = time.Now()

	resp, err = do(http.MethodGet, base+"/v1/jobs/"+s.id+"/report", nil)
	if err != nil {
		return s, err
	}
	s.report, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.lat = time.Since(start)
	if err != nil {
		return s, err
	}
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("report: HTTP %d: %.200s", resp.StatusCode, s.report)
	}
	return s, nil
}

// checkServiceReport runs the oracle over a service job's report.
func checkServiceReport(j serviceJob, report []byte) error {
	var r wire.Report
	if err := json.Unmarshal(report, &r); err != nil {
		return fmt.Errorf("decoding report: %w", err)
	}
	return checkReport(shapeSplit, j.Programs, &r, false)
}

// serviceInputs yields job i's submission.
type serviceInputs func(i int) (serviceJob, error)

// setUpService sets up a host under the set-up repeat rule — start
// until /readyz, then (service-warm) the warm-up pass converting every
// pool program under every variant once — stopping all but the last.
// It returns the last host, the set-up durations, and how many warm-up
// jobs the oracle rejected.
func setUpService(start func() (*host, error), hc *http.Client, warm []serviceJob) (*host, []time.Duration, int, error) {
	var h *host
	failed := 0
	setups, err := repeatSetup(func() error {
		var err error
		if h, err = start(); err != nil {
			return err
		}
		var mu sync.Mutex
		var wg sync.WaitGroup
		next := atomic.Int64{}
		for c := 0; c < serviceClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < len(warm); i = int(next.Add(1) - 1) {
					s, err := runJob(hc, h.base, warm[i].Body, 0, 0)
					if err == nil {
						err = checkServiceReport(warm[i], s.report)
					}
					if err != nil {
						mu.Lock()
						failed++
						mu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		return nil
	}, func() error { return h.stop() })
	if err != nil {
		if h != nil {
			h.stop()
		}
		return nil, nil, 0, err
	}
	return h, setups, failed, nil
}

func runService(cfg config, st stamp) (*measurement, error) {
	var warm []serviceJob
	var inputs serviceInputs
	if cfg.Workload == "service-warm" {
		var err error
		if warm, err = warmJobs(cfg.Seed); err != nil {
			return nil, err
		}
		inputs = func(i int) (serviceJob, error) { return warm[i%len(warm)], nil }
	} else {
		pool, err := coldPool(cfg.Seed)
		if err != nil {
			return nil, err
		}
		inputs = func(i int) (serviceJob, error) { return coldJob(pool, i) }
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	if cfg.Trace {
		return traceService(cfg, st, hc, warm, inputs)
	}

	h, setups, warmFailed, err := setUpService(func() (*host, error) { return startDaemon(cfg.Daemon) }, hc, warm)
	if err != nil {
		return nil, err
	}
	if err := resetPeak(h.pid); err != nil {
		h.stop()
		return nil, err
	}
	cs := sampleCPU(h.pid)
	w := closedLoop(serviceClients, cfg.Seconds, 0, 1, plainServiceJob(hc, h.base, inputs))
	err1 := cs.finish()
	peak, err2 := procMemMB(h.pid, "VmHWM")
	if err := errors.Join(err1, err2, h.stop()); err != nil {
		return nil, err
	}
	v := map[string]float64{}
	sliceMetrics(v, w, cs)
	v["peak_rss_mb"] = peak
	v["setup_s"] = medianSeconds(setups)
	notes := []string{tailNote(w),
		"completion: each client follows GET /v1/jobs/{id}/events, which ends when the job finishes (push, no polling)"}
	if warmFailed > 0 {
		notes = append(notes, fmt.Sprintf("%d warm-up jobs failed the oracle", warmFailed))
	}
	return &measurement{attempted: w.attempted + warmFailed, failed: w.failed + warmFailed, values: v, notes: notes}, nil
}

// plainServiceJob is the untraced job: submit, wait, fetch, check.
func plainServiceJob(hc *http.Client, base string, inputs serviceInputs) jobFunc {
	return func(_, i int) (time.Duration, error) {
		j, err := inputs(i)
		if err != nil {
			return 0, err
		}
		s, err := runJob(hc, base, j.Body, 0, 0)
		if err != nil {
			return s.lat, err
		}
		return s.lat, checkServiceReport(j, s.report)
	}
}
