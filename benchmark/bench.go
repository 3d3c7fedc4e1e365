package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// workload is one seeded operation list and the instance set it runs on.
// Its constructor generates every input and every output reference from
// the seed; nothing in it is timed.
type workload interface {
	// size is the length of the operation list. A measured window runs
	// whole passes over it, so every run sees the list's exact mix.
	size() int
	// clients is the number of closed-loop clients.
	clients() int
	// setupReps is how many fresh set-ups a run times for setup_s.
	setupReps() int
	// open builds and prepares the instance set: the timed set-up.
	open(ctx context.Context) (session, error)
	// probe names the instance the traced run's layer probe measures.
	probe() probeSpec
}

// session is an opened workload, ready to run operations.
type session interface {
	// rootName is the root span name of operation i.
	rootName(i int) string
	// do runs operation i and checks its output. lat covers the call
	// alone, not the check; err reports a failed call or a failed check.
	do(ctx context.Context, i int, tr *opTrace) (lat time.Duration, err error)
	// cost returns the model cost (rounds, words) charged by every
	// operation run so far.
	cost() (rounds, messages int64, err error)
	close() error
}

// window is what one drive observed.
type window struct {
	latMS   []float64
	elapsed time.Duration
	failed  int
}

func (w window) ops() int { return len(w.latMS) }

// maxLoggedFailures bounds the failure lines a run prints to stderr.
const maxLoggedFailures = 5

// drive runs operations in list order on the workload's closed-loop
// clients: each client sends its next operation only after the previous
// one returned. With passes set it stops at the first pass boundary it
// reaches after dur (so dur = 0 is exactly one pass); otherwise it stops as
// soon as dur has passed.
func drive(ctx context.Context, s session, n, clients int, dur time.Duration, passes bool, rec *recorder) window {
	var (
		mu     sync.Mutex
		next   int
		done   bool
		w      window
		logged int
	)
	start := time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !done && time.Since(start) >= dur && (!passes || (next > 0 && next%n == 0)) {
			done = true
		}
		if done {
			return 0, false
		}
		next++
		return (next - 1) % n, true
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				tr := rec.begin(s.rootName(i))
				lat, err := s.do(ctx, i, tr)
				tr.finish()
				mu.Lock()
				w.latMS = append(w.latMS, toMS(lat))
				if err != nil {
					w.failed++
					if logged < maxLoggedFailures {
						logged++
						fmt.Fprintf(os.Stderr, "distbench: operation %d (%s): %v\n", i, s.rootName(i), err)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	return w
}

// setUp opens the workload setupReps times, timing each fresh set-up, and
// keeps the last session open.
func setUp(ctx context.Context, wl workload) (session, []float64, error) {
	var keep session
	var secs []float64
	for k := 0; k < wl.setupReps(); k++ {
		t0 := time.Now()
		s, err := wl.open(ctx)
		d := time.Since(t0)
		if err != nil {
			if keep != nil {
				_ = keep.close() // the set-up error is the one to report
			}
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, d.Seconds())
		if keep != nil {
			if err := keep.close(); err != nil {
				_ = s.close() // the close error is the one to report
				return nil, nil, fmt.Errorf("set-up: close: %w", err)
			}
		}
		keep = s
	}
	return keep, secs, nil
}

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// End-to-end metrics, printed by every untraced run. The units, directions
// and bounds are fixed in BENCHMARK.json.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"rounds_per_op", "count"},
	{"messages_per_op", "count"},
	{"alloc_kb_per_op", "KiB"},
	{"live_heap_mb", "MiB"},
}

// measured is the untraced run: set-up, an untimed warm-up of a tenth of
// the window, then whole passes over the operation list until dur has
// passed.
func measured(ctx context.Context, wl workload, dur time.Duration) (result, error) {
	s, setupSecs, err := setUp(ctx, wl)
	if err != nil {
		return result{}, err
	}
	n, clients := wl.size(), wl.clients()
	warm := drive(ctx, s, n, clients, dur/10, false, nil)

	r0, w0, err := s.cost()
	if err != nil {
		return result{}, closeAfter(s, err)
	}
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	win := drive(ctx, s, n, clients, dur, true, nil)
	runtime.ReadMemStats(&m1)
	r1, w1, err := s.cost()
	if err != nil {
		return result{}, closeAfter(s, err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m2)
	if err := s.close(); err != nil {
		return result{}, err
	}

	ops := float64(win.ops())
	vals := map[string]float64{
		"setup_s":         median(setupSecs),
		"throughput_rps":  ops / win.elapsed.Seconds(),
		"latency_p50_ms":  median(win.latMS),
		"rounds_per_op":   float64(r1-r0) / ops,
		"messages_per_op": float64(w1-w0) / ops,
		"alloc_kb_per_op": float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / ops,
		"live_heap_mb":    float64(m2.HeapAlloc) / (1 << 20),
	}
	res := result{
		Attempted: warm.ops() + win.ops(),
		Failed:    warm.failed + win.failed,
		Metrics:   map[string]metric{},
	}
	res.Correct = res.Failed == 0
	for _, e := range endToEnd {
		res.Metrics[e.name] = metric{Value: vals[e.name], Unit: e.unit}
	}
	return res, nil
}

// closeAfter closes s after err ended its run and returns err.
func closeAfter(s session, err error) error {
	_ = s.close() // err is the failure to report
	return err
}
