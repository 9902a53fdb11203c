// Package obs is the supervisor's observability substrate:
//
//   - the Stage names of the Figure 4.1 pipeline boxes (this file);
//   - the structured event log (event.go): typed Events through a Sink,
//     with a bounded RingSink and a nil-safe Emitter so uninstrumented
//     runs pay nothing. The stage-end event carries the one timed
//     duration of each stage attempt;
//   - the DataPlane report totals (dataplane.go).
//
// Every fold of the event log lives elsewhere: the event-derived
// counters and the stage latency histograms with their Prometheus
// exposition in internal/telemetry (Instruments is a Sink), as do the
// span tree and the Chrome trace export.
//
// The package is stdlib-only and safe for concurrent use: no-sink event
// emission allocates nothing, so instrumented parallel runs stay within
// measurement noise of uninstrumented ones.
package obs

import "fmt"

// Stage identifies one Figure 4.1 pipeline box.
type Stage uint8

// The pipeline stages, in execution order.
const (
	StageAnalyze Stage = iota
	StageConvert
	StageOptimize
	StageGenerate
	StageVerify
	numStages
)

var stageNames = [numStages]string{
	"analyze", "convert", "optimize", "generate", "verify",
}

// String implements fmt.Stringer.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// Stages returns every stage in execution order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}
