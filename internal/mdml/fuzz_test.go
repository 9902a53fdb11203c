package mdml

import (
	"fmt"
	"testing"
)

// FuzzParseSortOrFind: ParseSortOrFind never panics, and whatever it
// accepts renders to text that reparses and renders identically — the
// fixed point the Program Generator and the fingerprint rely on.
func FuzzParseSortOrFind(f *testing.F) {
	for _, src := range []string{
		"FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30))",
		"FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'), DIV-EMP, EMP(DEPT-NAME = 'SALES'))",
		"SORT(FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30))) ON (AGE)",
		"SORT(FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP)) ON (EMP-NAME, AGE)",
		"FIND(EMP: TEXDIVS, DIV-EMP, EMP)",
		"FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP((AGE > 30 OR AGE < 25) AND NOT DEPT-NAME = 'O''HARA'))",
		"FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > :MIN AND AGE <= -1 AND AGE <> 2.5))",
		"FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE >= 7.0))",
		"FIND(A:A(A=1000000.0))",
		"FIND(A:A(A=0.00001))",
		"FIND(EMP: SYSTEM, DIV(AGE >)",
		"SORT(FIND(EMP: SYSTEM, DIV)) ON",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		x, err := ParseSortOrFind(src)
		if err != nil {
			return
		}
		text := fmt.Sprint(x)
		y, err := ParseSortOrFind(text)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not reparse: %v", src, text, err)
		}
		if again := fmt.Sprint(y); again != text {
			t.Fatalf("%q renders as %q, which reparses and renders as %q", src, text, again)
		}
	})
}
