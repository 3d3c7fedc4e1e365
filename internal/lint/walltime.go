package lint

// walltimeExempt are the module-relative package suffixes allowed to read
// the wall clock: the experiment harness times real executions (its
// wall-clock numbers are reported, never gated — see cmd/bench), and the
// distlapd serving layer measures request latency and uptime (which the
// obs registry segregates into wall-clock metric families below the
// exposition marker, so the determinism gates never compare them).
// Everything else under internal/ is simulator code whose outputs must be
// bit-identical across runs, and a clock read is the canonical way to
// break that. internal/obs itself is deliberately NOT exempt: the metrics
// subsystem never reads the clock — callers observe durations into
// wall-clock histograms — and the analyzer enforces that split.
var walltimeExempt = []string{"/internal/experiments", "/internal/service"}

// clockFuncs are the time-package functions that observe or depend on the
// wall clock (or the runtime timer heap, equally non-replayable).
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// WallTime returns the walltime analyzer: time.Now / time.Since (and the
// rest of the clock-observing time API) are banned in deterministic
// internal packages. A clock read anywhere in a measured code path makes
// double-run bit-identity (determinism_test.go) and the cmd/bench -compare
// gate meaningless — timing belongs in cmd/ or internal/experiments.
// seededrand separately flags the aggravated case of seeding an RNG from
// the clock, which is banned everywhere including cmd/.
func WallTime() *Analyzer {
	return &Analyzer{
		Name: "walltime",
		Doc: "flags time.Now/Since/Sleep/Tick/... in deterministic internal " +
			"packages; wall-clock timing belongs in cmd/ or internal/experiments",
		Run: runWallTime,
	}
}

func runWallTime(p *Package) []Diagnostic {
	if !underInternal(p.Path) {
		return nil
	}
	for _, suffix := range walltimeExempt {
		if inScope(p.Path, suffix) {
			return nil
		}
	}
	var out []Diagnostic
	for _, f := range p.Files {
		forEachPkgCall(p, f, func(call callSite) {
			if call.pkg == "time" && clockFuncs[call.fn] {
				out = append(out, diag(p, call.node, "walltime",
					"time.%s in simulator package %s breaks double-run bit-identity; wall-clock timing belongs in cmd/ or internal/experiments",
					call.fn, p.Path))
			}
		})
	}
	return out
}
