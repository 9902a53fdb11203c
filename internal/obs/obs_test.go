package obs

import "testing"

func TestStageString(t *testing.T) {
	if StageOptimize.String() != "optimize" {
		t.Errorf("optimize = %q", StageOptimize)
	}
	if got := Stage(200).String(); got != "stage(200)" {
		t.Errorf("unknown stage = %q", got)
	}
	if len(Stages()) != int(numStages) {
		t.Errorf("Stages() = %v", Stages())
	}
}
