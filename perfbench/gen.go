package main

// The seeded input generator. Everything the system under test receives
// — schema DDL, program text, databases — is made here from the
// --seed value alone, so the same seed gives byte-identical inputs.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"progconv/internal/corpus"
	"progconv/internal/netstore"
	"progconv/internal/schema"
	"progconv/internal/value"
	"progconv/internal/wire"
	"progconv/internal/xform"
)

// shape sizes one generated COMPANY (Figure 4.2) database.
type shape struct {
	Divisions   int
	DeptsPerDiv int
	Employees   int
}

var (
	// verifyShape is the verify-large database: about 5k records.
	verifyShape = shape{Divisions: 16, DeptsPerDiv: 6, Employees: 5000}
	// translateShape is the translate-large database: about 30k records.
	translateShape = shape{Divisions: 40, DeptsPerDiv: 8, Employees: 30000}
	// serviceShape only steers the names generated programs refer to;
	// the service workloads ship no database.
	serviceShape = shape{Divisions: 4, DeptsPerDiv: 3, Employees: 60}
)

// division is one generated DIV record.
type division struct {
	Name, Loc string
}

// employee is one generated EMP record and the division that owns it.
type employee struct {
	Name, Dept string
	Age        int
	Div        int // index into population.Divs
}

// population is a generated COMPANY database in load order: every
// division is followed by its employees, so each owner is stored
// before its members.
type population struct {
	Divs []division
	Emps []employee
}

// Records is the number of records the population loads.
func (p *population) Records() int { return len(p.Divs) + len(p.Emps) }

// genPopulation draws a population: employees per division follow a
// Zipf law (s=1.1, v=4: the largest division about seven times the
// median one) and ages a normal
// law clamped to working age.
func genPopulation(seed int64, sh shape) *population {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 4, uint64(sh.Divisions-1))
	p := &population{Divs: make([]division, sh.Divisions)}
	for d := range p.Divs {
		p.Divs[d] = division{Name: fmt.Sprintf("DIV-%02d", d), Loc: fmt.Sprintf("CITY-%02d", rng.Intn(50))}
	}
	byDiv := make([][]employee, sh.Divisions)
	for e := 0; e < sh.Employees; e++ {
		d := int(zipf.Uint64())
		age := int(math.Round(rng.NormFloat64()*9 + 41))
		age = min(max(age, 18), 70)
		byDiv[d] = append(byDiv[d], employee{
			Dept: fmt.Sprintf("D-%02d", rng.Intn(sh.DeptsPerDiv)),
			Age:  age,
			Div:  d,
		})
	}
	n := 0
	for _, emps := range byDiv {
		for _, e := range emps {
			e.Name = fmt.Sprintf("E-%05d", n)
			n++
			p.Emps = append(p.Emps, e)
		}
	}
	return p
}

// load stores the population into a fresh CompanyV1 database, owners
// first.
func (p *population) load() (*netstore.DB, error) {
	db := netstore.NewDB(schema.CompanyV1())
	divIDs := make([]netstore.RecordID, len(p.Divs))
	for i, d := range p.Divs {
		id, err := db.StoreWith("DIV", value.FromPairs("DIV-NAME", d.Name, "DIV-LOC", d.Loc),
			map[string]netstore.RecordID{"ALL-DIV": netstore.OwnerSystem})
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", d.Name, err)
		}
		divIDs[i] = id
	}
	for _, e := range p.Emps {
		_, err := db.StoreWith("EMP", value.FromPairs("EMP-NAME", e.Name, "DEPT-NAME", e.Dept, "AGE", e.Age),
			map[string]netstore.RecordID{"DIV-EMP": divIDs[e.Div]})
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", e.Name, err)
		}
	}
	return db, nil
}

// genProgram is one generated program with the class the corpus
// generator drew it from; the oracle keys expected dispositions on it.
type genProgram struct {
	Kind   corpus.Kind
	Name   string
	Source string
}

// genPrograms draws n programs at the period hazard mix (the profile
// calibrated to the paper's 65–70% automatic rate), referring to
// divisions, departments and employees of the given shape.
func genPrograms(seed int64, n int, sh shape) ([]genProgram, error) {
	prof := corpus.PeriodProfile(seed)
	prof.Programs = n
	prof.Divisions, prof.DeptsPerDiv = sh.Divisions, sh.DeptsPerDiv
	prof.EmpsPerDept = max(1, sh.Employees/(sh.Divisions*sh.DeptsPerDiv))
	members, err := corpus.Programs(prof)
	if err != nil {
		return nil, err
	}
	out := make([]genProgram, len(members))
	for i, m := range members {
		out[i] = genProgram{Kind: m.Kind, Name: m.Program.Name, Source: m.Source}
	}
	return out, nil
}

// padDDL renders the COMPANY pair with a PAD field spliced into EMP on
// both sides, as EXP-S2 does: each distinct pad is a distinct pair
// fingerprint with the same V2-split conversion.
func padDDL(pad string) (src, dst string) {
	field := "AGE INT.\n    " + pad + " CHAR."
	src = strings.Replace(schema.CompanyV1().DDL(), "AGE INT.", field, 1)
	dst = strings.Replace(schema.CompanyV2().DDL(), "AGE INT.", field, 1)
	return src, dst
}

// serviceJob is one generated daemon submission and what the oracle
// expects of its report.
type serviceJob struct {
	Body     []byte
	Programs []genProgram
	Pad      string
}

func newServiceJob(pad string, progs []genProgram) (serviceJob, error) {
	src, dst := padDDL(pad)
	spec := wire.JobSpec{V: wire.Version, SourceDDL: src, TargetDDL: dst}
	for _, p := range progs {
		spec.Programs = append(spec.Programs, wire.ProgramSpec{Source: p.Source})
	}
	body, err := json.Marshal(&spec)
	if err != nil {
		return serviceJob{}, err
	}
	return serviceJob{Body: body, Programs: progs, Pad: pad}, nil
}

// Service workload sizes.
const (
	jobPrograms  = 100 // programs per service job
	warmPool     = 400 // distinct programs service-warm draws from
	warmVariants = 8   // PAD variants of the COMPANY pair in service-warm
	verifyProgs  = 8   // programs per verify-large job
	verifyPool   = 400 // distinct programs verify-large draws from
)

// warmJobs returns the distinct service-warm submissions: the pool cut
// into jobPrograms-sized slices, each under every pair variant. Job i
// of the timed loop is warmJobs[i%len], so variants go round-robin.
func warmJobs(seed int64) ([]serviceJob, error) {
	pool, err := genPrograms(seed, warmPool, serviceShape)
	if err != nil {
		return nil, err
	}
	var jobs []serviceJob
	for slice := 0; slice < warmPool/jobPrograms; slice++ {
		for v := 0; v < warmVariants; v++ {
			j, err := newServiceJob(fmt.Sprintf("PAD-%d", v), pool[slice*jobPrograms:(slice+1)*jobPrograms])
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}

// coldPool returns the programs service-cold jobs are drawn from.
func coldPool(seed int64) ([]genProgram, error) {
	return genPrograms(seed+1_000_003, warmPool, serviceShape)
}

// coldJob returns service-cold submission i: a pair no earlier job
// used (its own PAD field) and jobPrograms programs from the pool,
// renamed for this job, so their text — and content fingerprint — is
// new to the daemon.
func coldJob(pool []genProgram, i int) (serviceJob, error) {
	lo := (i * jobPrograms) % len(pool)
	progs := make([]genProgram, jobPrograms)
	prefix := fmt.Sprintf("C%05d-", i)
	for k, p := range pool[lo : lo+jobPrograms] {
		progs[k] = genProgram{
			Kind:   p.Kind,
			Name:   prefix + p.Name,
			Source: strings.Replace(p.Source, "PROGRAM "+p.Name+" ", "PROGRAM "+prefix+p.Name+" ", 1),
		}
	}
	return newServiceJob(fmt.Sprintf("PAD-%d", 1000+i), progs)
}

// dealJobs orders a program pool for jobs of size programs each: the
// pool is sorted by class and dealt round-robin, so consecutive slices
// of the result carry the same mix of classes and verify-large's jobs
// cost alike instead of one job drawing every expensive sweep.
func dealJobs(pool []genProgram, size int) []genProgram {
	byKind := append([]genProgram(nil), pool...)
	sort.SliceStable(byKind, func(i, j int) bool { return byKind[i].Kind < byKind[j].Kind })
	jobs := len(pool) / size
	out := make([]genProgram, 0, jobs*size)
	for j := 0; j < jobs; j++ {
		for k := 0; k < size; k++ {
			out = append(out, byKind[j+k*jobs])
		}
	}
	return out
}

// Plan shapes the in-process workloads alternate between.
const (
	shapeSplit    = "v2-split"  // CompanyV1 → V2, classified: IntroduceIntermediate
	shapeFourStep = "four-step" // rename/add-field plan, fused and sharded
)

// fourStepPlan is four fusible per-record mapping steps over CompanyV1
// (the plan the repository's fused-migration experiments use).
func fourStepPlan() *xform.Plan {
	return &xform.Plan{Steps: []xform.Transformation{
		xform.RenameRecord{Old: "EMP", New: "EMPLOYEE"},
		xform.RenameField{Record: "DIV", Old: "DIV-LOC", New: "LOCATION"},
		xform.AddField{Record: "EMPLOYEE", Field: "STATUS", Kind: value.String, Default: value.Str("ACTIVE")},
		xform.RenameSet{Old: "DIV-EMP", New: "DIV-EMPLOYEE"},
	}}
}

// splitPlan is the V2 split as a plan: DEPT introduced between DIV and
// EMP, grouped by DEPT-NAME (what Classify derives for CompanyV1 → V2).
func splitPlan() *xform.Plan {
	return &xform.Plan{Steps: []xform.Transformation{
		xform.IntroduceIntermediate{
			Set: "DIV-EMP", Inter: "DEPT", GroupField: "DEPT-NAME",
			Upper: "DIV-DEPT", Lower: "DEPT-EMP",
		},
	}}
}

// planShape returns the shape job i uses: the in-process workloads
// alternate, starting with the split.
func planShape(i int) string {
	if i%2 == 0 {
		return shapeSplit
	}
	return shapeFourStep
}
