// Quickstart: convert one database program across one schema
// restructuring through the public progconv API and verify it "runs
// equivalently" (§1.1).
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"progconv"
	"progconv/internal/netstore"
	"progconv/internal/schema"
	"progconv/internal/value"
	"progconv/internal/xform"
)

func main() {
	// 1. The source database: Figure 4.2's COMPANY schema, populated.
	src := netstore.NewDB(schema.CompanyV1())
	sess := netstore.NewSession(src)
	sess.Store("DIV", value.FromPairs("DIV-NAME", "MACHINERY", "DIV-LOC", "DETROIT"))
	for _, e := range []struct {
		name, dept string
		age        int
	}{
		{"ADAMS", "SALES", 45}, {"BAKER", "SALES", 28}, {"CLARK", "WELDING", 33},
	} {
		sess.FindAny("DIV", value.FromPairs("DIV-NAME", "MACHINERY"))
		sess.Store("EMP", value.FromPairs("EMP-NAME", e.name, "DEPT-NAME", e.dept, "AGE", e.age))
	}

	// 2. A database program written against that schema.
	prog, err := progconv.ParseProgram(`
PROGRAM SALES-ROSTER DIALECT MARYLAND.
  FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(DEPT-NAME = 'SALES')) INTO SALES.
  FOR EACH E IN SALES
    PRINT EMP-NAME IN E, AGE IN E.
  END-FOR.
END PROGRAM.
`)
	if err != nil {
		log.Fatal(err)
	}

	// 3. The restructuring: Figure 4.2 → Figure 4.4 (departments become
	// records between divisions and employees).
	plan := &progconv.Plan{Steps: []xform.Transformation{
		xform.IntroduceIntermediate{
			Set: "DIV-EMP", Inter: "DEPT", GroupField: "DEPT-NAME",
			Upper: "DIV-DEPT", Lower: "DEPT-EMP",
		},
	}}

	// 4. One call converts the data and the program, and verifies the
	// conversion operationally: identical non-database I/O. WithMetrics
	// times each stage; the trace builder folds the timings into spans.
	tb := progconv.NewTraceBuilder(progconv.DeriveTraceID("quickstart"), "convert")
	report, err := progconv.Convert(context.Background(),
		src.Schema(), nil, plan, []*progconv.Program{prog},
		progconv.WithVerifyDB(src), progconv.WithMetrics(), progconv.WithTraceSink(tb))
	if err != nil {
		log.Fatal(err)
	}
	o := report.Outcomes[0]
	fmt.Println("converted program:")
	fmt.Print(o.Generated)
	fmt.Printf("\ndisposition: %s\n", o.Disposition)
	fmt.Printf("I/O equivalent: %v\n", o.Verified.Equal)
	fmt.Println("\noutput on the restructured database:")
	fmt.Print(o.Verified.Target)
	fmt.Println("\nstage timings:")
	for _, sp := range report.Trace.Spans {
		if sp.Kind == progconv.SpanStage {
			fmt.Printf("  %-10s %s\n", sp.Stage, sp.Dur)
		}
	}
}
