package dbprog

import (
	"reflect"
	"testing"
)

// FuzzFormat: Parse never panics, and every program it accepts survives
// Format and a reparse as the same tree. Text equality alone is not
// enough: a Float 7.0 that formats as 7 reparses as an Int and formats
// as 7 again, while the program now divides in integers.
func FuzzFormat(f *testing.F) {
	for _, src := range formatSources {
		f.Add(src)
	}
	for _, src := range []string{
		"PROGRAM F DIALECT NETWORK.\n  PRINT 7.0 / 2, 1000000.0, 0.00001.\nEND PROGRAM.\n",
		"PROGRAM F DIALECT MARYLAND.\n  FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 7.0)) INTO C.\nEND PROGRAM.\n",
		"PROGRAM F DIALECT SEQUEL.\n  FOR EACH R IN (SELECT ENAME FROM EMP WHERE AGE > 1000000.0)\n    PRINT ENAME IN R.\n  END-FOR.\nEND PROGRAM.\n",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		text := Format(p)
		q, err := Parse(text)
		if err != nil {
			t.Fatalf("formatted program does not reparse: %v\n%s", err, text)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("formatted program reparses to a different tree:\n%s\nreformats as\n%s", text, Format(q))
		}
	})
}
