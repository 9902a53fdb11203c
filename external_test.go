package progconv_test

// External-package tests: everything here sees progconv exactly as an
// importing project would — no internal/ packages — so it proves the
// facade is self-contained.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"progconv"
)

// customAnalyst is implementable from outside the module: Issue and its
// kind constants are part of the facade.
type customAnalyst struct {
	asked []string
}

func (a *customAnalyst) Decide(program string, issue progconv.Issue) bool {
	a.asked = append(a.asked, program+"/"+issue.Kind.String())
	return issue.Kind == progconv.OrderDependence
}

// The compile-time pin the ISSUE asks for: a custom Analyst satisfies
// the facade interface with no internal/ imports.
var _ progconv.Analyst = (*customAnalyst)(nil)

// TestExternalAnalystRoundTrip drives Convert end to end with the
// external analyst and checks the consultation reached it.
func TestExternalAnalystRoundTrip(t *testing.T) {
	src, dst := mustSchemas()
	prog, err := progconv.ParseProgram(`
PROGRAM PRINT-ALL DIALECT NETWORK.
  MOVE 'MACHINERY' TO DIV-NAME IN DIV.
  FIND ANY DIV USING DIV-NAME.
  PERFORM UNTIL DB-STATUS <> 'OK'
    FIND NEXT EMP WITHIN DIV-EMP.
    IF DB-STATUS = 'OK'
      GET EMP.
      PRINT EMP-NAME IN EMP.
    END-IF.
  END-PERFORM.
END PROGRAM.
`)
	if err != nil {
		t.Fatal(err)
	}
	a := &customAnalyst{}
	report, err := progconv.Convert(context.Background(), src, dst, nil,
		[]*progconv.Program{prog}, progconv.WithAnalyst(a))
	if err != nil {
		t.Fatal(err)
	}
	if report.Outcomes[0].Disposition != progconv.Qualified {
		t.Errorf("disposition = %s, want qualified", report.Outcomes[0].Disposition)
	}
	if len(a.asked) != 1 || a.asked[0] != "PRINT-ALL/order-dependence" {
		t.Errorf("asked = %v", a.asked)
	}
}

// stuckAnalyst never answers — the external face of the analyst-timeout
// degradation.
type stuckAnalyst struct{}

func (stuckAnalyst) Decide(string, progconv.Issue) bool {
	time.Sleep(2 * time.Second)
	return true
}

// panickyAnalyst models a broken integration.
type panickyAnalyst struct{}

func (panickyAnalyst) Decide(string, progconv.Issue) bool { panic("integration bug") }

// TestExternalResilienceSurface exercises the resilience options
// through the facade alone: an analyst timeout degrades to Manual, an
// analyst panic degrades to a Failed outcome under CollectErrors, and
// fail-fast surfaces ErrFailureBudget.
func TestExternalResilienceSurface(t *testing.T) {
	src, dst := mustSchemas()
	prog, err := progconv.ParseProgram(`
PROGRAM PRINT-ALL DIALECT NETWORK.
  MOVE 'MACHINERY' TO DIV-NAME IN DIV.
  FIND ANY DIV USING DIV-NAME.
  PERFORM UNTIL DB-STATUS <> 'OK'
    FIND NEXT EMP WITHIN DIV-EMP.
    IF DB-STATUS = 'OK'
      GET EMP.
      PRINT EMP-NAME IN EMP.
    END-IF.
  END-PERFORM.
END PROGRAM.
`)
	if err != nil {
		t.Fatal(err)
	}
	progs := []*progconv.Program{prog}

	report, err := progconv.Convert(context.Background(), src, dst, nil, progs,
		progconv.WithAnalyst(stuckAnalyst{}),
		progconv.WithAnalystTimeout(25*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	o := report.Outcomes[0]
	if o.Disposition != progconv.Manual || len(o.Audit.Decisions) != 1 || !o.Audit.Decisions[0].TimedOut {
		t.Errorf("analyst timeout outcome = %+v", o)
	}

	ring := progconv.NewRingSink(256)
	report, err = progconv.Convert(context.Background(), src, dst, nil, progs,
		progconv.WithAnalyst(panickyAnalyst{}),
		progconv.WithFailurePolicy(progconv.CollectErrors),
		progconv.WithEventSink(ring))
	if err != nil {
		t.Fatal(err)
	}
	o = report.Outcomes[0]
	if o.Disposition != progconv.Failed || o.Audit.Failure == nil ||
		o.Audit.Failure.Kind != progconv.FailPanic {
		t.Fatalf("analyst panic outcome = %+v", o)
	}
	panics := 0
	for _, ev := range ring.Events() {
		if ev.Kind == progconv.EvPanic {
			panics++
		}
	}
	if panics != 1 {
		t.Errorf("panic events = %d, want 1", panics)
	}
	if !strings.Contains(report.String(), "1 failed of 1 programs") {
		t.Errorf("summary:\n%s", report)
	}

	if _, err := progconv.Convert(context.Background(), src, dst, nil, progs,
		progconv.WithAnalyst(panickyAnalyst{})); !errors.Is(err, progconv.ErrFailureBudget) {
		t.Errorf("fail-fast err = %v, want ErrFailureBudget", err)
	}
}

// TestExternalClassifyFailureMentionsVerifyDB is the ISSUE's bugfix
// criterion: when plan inference fails and a verify database was
// supplied, the error must say the database was never migrated.
func TestExternalClassifyFailureMentionsVerifyDB(t *testing.T) {
	src, _ := mustSchemas()
	unrelated, err := progconv.ParseNetworkSchema(`
SCHEMA NAME IS OTHER
RECORD SECTION;
  RECORD NAME IS THING.
    FIELDS ARE.
      THING-NAME PIC X(8).
  END RECORD.
END RECORD SECTION.
SET SECTION.
  SET NAME IS ALL-THING.
    OWNER IS SYSTEM.
    MEMBER IS THING.
    SET KEYS ARE (THING-NAME).
  END SET.
END SET SECTION.
END SCHEMA.
`)
	if err != nil {
		t.Fatal(err)
	}
	db := progconv.NewDatabase(src)
	_, err = progconv.Convert(context.Background(), src, unrelated, nil, nil,
		progconv.WithVerifyDB(db))
	if !errors.Is(err, progconv.ErrHazardUnresolved) {
		t.Fatalf("err = %v, want ErrHazardUnresolved", err)
	}
	if !strings.Contains(err.Error(), "verify database was never migrated") {
		t.Errorf("error does not mention the unmigrated verify database: %v", err)
	}

	// Without a verify database the suffix stays out of the message.
	_, err = progconv.Convert(context.Background(), src, unrelated, nil, nil)
	if err == nil || strings.Contains(err.Error(), "verify database") {
		t.Errorf("plain classify error mentions a database nobody gave: %v", err)
	}
}
