package xform

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"progconv/internal/hierstore"
	"progconv/internal/netstore"
	"progconv/internal/schema"
	"progconv/internal/value"
)

// MigrateOptions configures the parallel data-translation path.
type MigrateOptions struct {
	// Parallelism bounds the shard workers per rebuild pass; <= 0 means
	// GOMAXPROCS. The output is byte-identical at every setting.
	Parallelism int
}

// MigrateStats reports how a migration executed: how many steps were
// composed into fused single-pass runs, how many ran their own pass,
// the total passes made, how many shards the passes fanned out into and
// how many records went through the bulk-load merge phase.
type MigrateStats struct {
	FusedSteps    int
	StepwiseSteps int
	Passes        int
	Shards        int
	BulkRecords   int
}

// minShardRecords is the smallest extent worth a dedicated shard: below
// this, goroutine handoff costs more than the transform it parallelizes.
const minShardRecords = 64

// ctxPollEvery is how many records the shard workers and the splice
// loop process between context polls, mirroring equiv.Check's cadence.
const ctxPollEvery = 256

// shardCount partitions n records for the given parallelism bound.
// It depends only on (n, parallelism), never on runtime load, so a
// migration shards identically on every machine and every run.
func shardCount(n, parallelism int) int {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	shards := parallelism
	if max := (n + minShardRecords - 1) / minShardRecords; shards > max {
		shards = max
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}

// fanOut runs prepare over [0, n) split into shardCount(n, parallelism)
// contiguous ranges, one worker per range, and returns the shard count.
// A single shard runs on the calling goroutine.
func fanOut(n, parallelism int, prepare func(lo, hi int)) int {
	shards := shardCount(n, parallelism)
	if shards == 1 {
		prepare(0, n)
		return 1
	}
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		lo, hi := s*n/shards, (s+1)*n/shards
		wg.Add(1)
		go func() {
			defer wg.Done()
			prepare(lo, hi)
		}()
	}
	wg.Wait()
	return shards
}

// Migrate is the data translator: it restructures src through every
// step of the plan. Maximal runs of two or more routeless steps compose
// into a single pass; every other step runs its own pass. Every pass
// fans out over opts.Parallelism shard workers and merges through the
// netstore bulk loader. The result — record IDs, set orderings, index
// contents, error text and order — is byte-identical at every
// parallelism, and to migrating one step per pass for every plan whose
// stepwise migration succeeds (a plan failing an intermediate-schema
// validity check mid-run may fail differently fused). Cancelling ctx
// aborts mid-pass; the cause surfaces unwrapped inside the usual
// per-step error wrapping, so errors.Is(err, context.DeadlineExceeded)
// sees through it.
func (p *Plan) Migrate(ctx context.Context, src *netstore.DB, opts MigrateOptions) (*netstore.DB, MigrateStats, error) {
	var stats MigrateStats
	cur := src
	curSchema := src.Schema()
	for i := 0; i < len(p.Steps); {
		// Collect the run of routeless steps from i. A routed step, or
		// one whose fns reject its input schema, ends the run; when it
		// starts one, it is the run's only step.
		j, runSchema := i, curSchema
		var chain []rebuildFns
		for j < len(p.Steps) {
			t := p.Steps[j]
			f, ferr := t.dataFns(runSchema)
			if j > i && (ferr != nil || f.route != nil) {
				break
			}
			next, err := t.ApplySchema(runSchema)
			if err == nil {
				err = ferr
			}
			if err != nil {
				return nil, stats, fmt.Errorf("xform: %s: %w", t.Name(), err)
			}
			chain = append(chain, f)
			runSchema = next
			j++
			if f.route != nil {
				break
			}
		}
		fused := len(chain) > 1
		f, label := chain[0], p.Steps[i].Name()
		if fused {
			f, label = composeFns(chain), fmt.Sprintf("fused steps %d..%d", i+1, j)
		}
		next, err := rebuildParallel(ctx, cur, runSchema, f, opts.Parallelism, &stats)
		if err != nil {
			return nil, stats, fmt.Errorf("xform: %s: %w", label, err)
		}
		if fused {
			stats.FusedSteps += len(chain)
		} else {
			stats.StepwiseSteps++
		}
		stats.Passes++
		cur, curSchema = next, runSchema
		i = j
	}
	return cur, stats, nil
}

// stagedMember is one source set membership a shard worker collected:
// the spliceSet index and the source owner occurrence, resolved to a
// destination owner only at splice time (the owner's destination ID
// does not exist until its own splice). On a collapse route the owner
// is already the intermediate's own owner; orphan marks an
// intermediate that has none, and owner then holds the intermediate.
type stagedMember struct {
	si     int32
	orphan bool
	owner  netstore.RecordID
}

// stagedGroup is the group field a shard worker lifted out of a member
// on an introduce route: the value its intermediate carries and the
// value's key form.
type stagedGroup struct {
	val value.Value
	key string
}

// interKey identifies one synthesized intermediate: the destination
// owner and the key form of the group value.
type interKey struct {
	owner netstore.RecordID
	group string
}

// intermediates stores an introduce pass's synthesized occurrences, one
// per (destination owner, group value), the first time the splice meets
// the pair while wiring a member's memberships, so each intermediate's
// record ID comes just before its first member's.
type intermediates struct {
	typ   *schema.RecordType
	upper *schema.SetType
	field string
	ids   map[interKey]netstore.RecordID
}

func (im *intermediates) place(bl *netstore.BulkLoader, owner netstore.RecordID, g stagedGroup) (netstore.RecordID, error) {
	k := interKey{owner, g.key}
	if id, ok := im.ids[k]; ok {
		return id, nil
	}
	// The group value was kind-checked against the member's field, whose
	// kind the intermediate's field copies.
	rec := value.NewRecordSize(1)
	rec.Set(im.field, g.val)
	id, err := bl.StorePrepared(im.typ, rec, []netstore.BulkMembership{{Set: im.upper, Owner: owner}})
	if err != nil {
		return 0, err
	}
	im.ids[k] = id
	return id, nil
}

// stagedRec is one shard-prepared record awaiting its splice: the
// destination data record (built off-thread, kind-checked), the
// memberships to wire, and any error the preparation raised — held
// back so errors surface in source insertion order, as a
// record-at-a-time pass would raise them.
type stagedRec struct {
	data    *value.Record
	members []stagedMember
	err     error
}

// spliceSet is one source member set of the type being rebuilt, with
// its destination mapping pre-resolved once per pass instead of per
// record.
type spliceSet struct {
	srcName string
	dstName string
	dst     *schema.SetType // nil when dstName is absent from dst (StoreWith's unknown-set case)
	system  bool
	drop    bool
	route   bool // the set f.route re-homes
}

// stagingRecPool recycles the per-worker scratch records that hold a
// source occurrence's stored data during the transform (and, on a
// collapse route, the intermediate's). The staged destination records
// are NOT pooled — they become the new database's occurrence data.
var stagingRecPool = sync.Pool{New: func() any { return value.NewRecord() }}

// rebuildParallel is the migration engine's one pass: it copies src into
// a fresh database under dst through f, record types owners-first, with
// the per-record transform fanned out over shard workers. Each record
// type partitions the source occurrences into contiguous ID-range
// shards, transforms each shard into private staging, then splices the
// staged records into the destination sequentially in source insertion
// order — so IDs, set orderings, index contents, and error precedence
// do not depend on the shard count. The merge phase goes through the
// bulk loader, which defers member ordering and index maintenance to
// one batched finalization per pass. A structural step's f.route
// re-homes one set: workers lift out or push back the group field and
// read the owners, and the splice synthesizes intermediates as it goes.
func rebuildParallel(ctx context.Context, src *netstore.DB, dst *schema.Network, f rebuildFns, parallelism int, stats *MigrateStats) (*netstore.DB, error) {
	out := netstore.NewDB(dst)
	bl := out.NewBulkLoader(src.Len())
	// idMap is dense: source IDs are bounded by IDBound and destination
	// IDs start at 1, so 0 doubles as "not migrated".
	idMap := make([]netstore.RecordID, src.IDBound())
	srcSchema := src.Schema()

	rt := f.route
	var intro *intermediates
	if rt != nil && rt.inter != "" {
		intro = &intermediates{
			typ:   dst.Record(rt.inter),
			upper: dst.Set(rt.upper),
			field: rt.field,
			ids:   make(map[interKey]netstore.RecordID),
		}
	}

	var staged []stagedRec
	var memBuf []stagedMember
	var groups []stagedGroup
	var targets []netstore.BulkMembership

	for _, srcType := range topoRecordOrder(srcSchema) {
		dstType := srcType
		if f.mapType != nil {
			dstType = f.mapType(srcType)
		}
		if dstType == "" {
			continue
		}
		ids := src.AllOf(srcType)
		n := len(ids)
		if n == 0 {
			// An empty extent stores nothing, so even an unmapped
			// destination type is not an error.
			continue
		}
		typ := dst.Record(dstType)
		if typ == nil {
			return nil, fmt.Errorf("netstore: unknown record type %s", dstType)
		}

		memberSets := srcSchema.SetsWithMember(srcType)
		sets := make([]spliceSet, len(memberSets))
		for si, set := range memberSets {
			dstSet := set.Name
			if f.mapSet != nil {
				dstSet = f.mapSet(set.Name)
			}
			e := spliceSet{srcName: set.Name, dstName: dstSet, system: set.IsSystem(), drop: dstSet == "",
				route: rt != nil && srcType == rt.member && set.Name == rt.set}
			if !e.drop {
				e.dst = dst.Set(dstSet)
			}
			sets[si] = e
		}
		k := len(sets)

		if cap(staged) < n {
			staged = make([]stagedRec, n)
		}
		staged = staged[:n]
		if k > 0 {
			if cap(memBuf) < n*k {
				memBuf = make([]stagedMember, n*k)
			}
		}
		if intro != nil && srcType == rt.member {
			groups = make([]stagedGroup, n)
		}

		prepare := func(lo, hi int) {
			tmp := stagingRecPool.Get().(*value.Record)
			defer stagingRecPool.Put(tmp)
			var inter *value.Record
			if rt != nil && intro == nil {
				inter = stagingRecPool.Get().(*value.Record)
				defer stagingRecPool.Put(inter)
			}
			for i := lo; i < hi; i++ {
				if i%ctxPollEvery == 0 && ctx.Err() != nil {
					for ; i < hi; i++ {
						staged[i] = stagedRec{err: ctx.Err()}
					}
					return
				}
				id := ids[i]
				st := &staged[i]
				st.err = nil
				st.members = nil
				src.StoredDataInto(id, tmp)
				data := tmp
				if f.mapData != nil {
					data = f.mapData(srcType, data)
				}
				if k > 0 {
					mem := memBuf[i*k : i*k : i*k+k]
					for si := range sets {
						if sets[si].drop {
							continue
						}
						owner, connected := src.OwnerOf(sets[si].srcName, id)
						if !connected {
							continue
						}
						m := stagedMember{si: int32(si), owner: owner}
						if sets[si].route {
							if intro != nil {
								// Lift the group field out; the member's
								// copy is virtual in dst, so the record
								// built below omits it.
								gv := data.MustGet(rt.field)
								groups[i] = stagedGroup{val: gv, key: gv.Key()}
							} else {
								// Push the intermediate's group field back
								// down and re-home under its owner.
								src.StoredDataInto(owner, inter)
								data.Set(rt.field, inter.MustGet(rt.field))
								if grand, ok := src.OwnerOf(rt.upper, owner); ok {
									m.owner = grand
								} else {
									m.orphan = true
								}
							}
						}
						mem = append(mem, m)
					}
					st.members = mem
				}
				rec := value.NewRecordSize(len(typ.Fields))
				for _, fld := range typ.Fields {
					if fld.Virtual != nil {
						continue
					}
					v, _ := data.Get(fld.Name)
					if !v.IsNull() && v.Kind() != fld.Kind {
						st.err = fmt.Errorf("netstore: %s.%s: value kind %v, field kind %v",
							dstType, fld.Name, v.Kind(), fld.Kind)
						rec = nil
						break
					}
					rec.Set(fld.Name, v)
				}
				st.data = rec
			}
		}

		stats.Shards += fanOut(n, parallelism, prepare)

		// Splice sequentially in source insertion order. Error precedence
		// per record is a record-at-a-time pass's: unmigrated owners and
		// intermediate placement (in membership order, as they are met
		// while collecting memberships) before the staged kind error
		// before StoreWith's membership validation.
		if cap(targets) < k {
			targets = make([]netstore.BulkMembership, 0, k)
		}
		for i := range staged {
			if i%ctxPollEvery == 0 && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			st := &staged[i]
			var via netstore.RecordID // the intermediate an introduce route places the record under
			for _, m := range st.members {
				e := &sets[m.si]
				switch {
				case e.system:
					continue
				case m.orphan:
					return nil, fmt.Errorf("xform: intermediate %d has no %s owner", m.owner, rt.upper)
				case idMap[m.owner] == 0:
					return nil, ownerPending(rt, srcType, e)
				}
				if e.route && intro != nil {
					var err error
					if via, err = intro.place(bl, idMap[m.owner], groups[i]); err != nil {
						return nil, err
					}
				}
			}
			if st.err != nil {
				return nil, st.err
			}
			targets = targets[:0]
			for _, m := range st.members {
				e := &sets[m.si]
				if e.dst == nil {
					return nil, fmt.Errorf("netstore: unknown set %s", e.dstName)
				}
				owner := netstore.OwnerSystem
				switch {
				case e.system:
				case e.route && intro != nil:
					owner = via
				default:
					owner = idMap[m.owner]
				}
				targets = append(targets, netstore.BulkMembership{Set: e.dst, Owner: owner})
			}
			nid, err := bl.StorePrepared(typ, st.data, targets)
			if err != nil {
				return nil, err
			}
			idMap[ids[i]] = nid
		}
	}
	bl.Close(parallelism)
	stats.BulkRecords += bl.Loaded()
	return out, nil
}

// ownerPending is the error for a record whose owner in e has no
// destination occurrence yet. Routeless passes, the re-homed link of a
// collapse and every other link of a structural pass word it apart.
func ownerPending(rt *setRoute, srcType string, e *spliceSet) error {
	switch {
	case rt == nil:
		return fmt.Errorf("xform: %s occurrence's owner in %s not yet migrated", srcType, e.srcName)
	case e.route && rt.inter == "":
		return fmt.Errorf("xform: owner of intermediate not yet migrated")
	}
	return fmt.Errorf("xform: owner of %s in %s not yet migrated", srcType, e.srcName)
}

// stagedRoot is one shard-prepared source root of a hierarchical
// reorder: the parent's data and every promoted child's, read
// off-thread so the sequential ISRT splice only replays inserts.
type stagedRoot struct {
	parentData *value.Record
	childData  []*value.Record
	canceled   bool
}

// Migrate chains the steps' data restructurings and accumulates their
// warnings (dropped unreachable occurrences, merged roots). Every step
// runs its own pass: a reorder changes parentage, which is a full
// restructuring. Each step's per-root reads fan out over shard workers
// ahead of the sequential insert splice, so the databases, warnings
// (text and order) and errors are the same at every shard count. An
// identity plan returns a clone, so the migrated database never aliases
// the caller's source.
func (p *HierPlan) Migrate(ctx context.Context, src *hierstore.DB, opts MigrateOptions) (*hierstore.DB, []string, MigrateStats, error) {
	var stats MigrateStats
	cur := src
	curSchema := src.Schema()
	var warnings []string
	for _, t := range p.Steps {
		nextSchema, err := t.ApplySchema(curSchema)
		if err != nil {
			return nil, warnings, stats, fmt.Errorf("xform: %s: %w", t.Name(), err)
		}
		next, warns, err := t.migrateDataParallel(ctx, cur, nextSchema, opts.Parallelism, &stats)
		warnings = append(warnings, warns...)
		if err != nil {
			return nil, warnings, stats, fmt.Errorf("xform: %s: %w", t.Name(), err)
		}
		stats.StepwiseSteps++
		stats.Passes++
		cur, curSchema = next, nextSchema
	}
	if cur == src {
		return src.Clone(), warnings, stats, nil
	}
	return cur, warnings, stats, nil
}

// migrateDataParallel restructures the database: each promoted
// occurrence becomes a root, with a copy of its former parent beneath
// it. Parent occurrences with no promoted children are dropped (they
// are unreachable in the new order) and reported as warnings. The
// per-root source reads (parent data, promoted children, child data —
// all clone-returning lookups on the unmutated source) are sharded
// across workers; the ISRT replay into the destination stays sequential
// in root order, so the new database, the warning list, and any
// migration error are the same at every shard count.
func (t HierReorder) migrateDataParallel(ctx context.Context, src *hierstore.DB, dst *schema.Hierarchy, parallelism int, stats *MigrateStats) (*hierstore.DB, []string, error) {
	roots := src.Roots()
	n := len(roots)
	promote := t.Promote

	stagedRoots := make([]stagedRoot, n)
	prepare := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if i%ctxPollEvery == 0 && ctx.Err() != nil {
				for ; i < hi; i++ {
					stagedRoots[i].canceled = true
				}
				return
			}
			st := &stagedRoots[i]
			st.parentData = src.Data(roots[i])
			children := src.ChildrenOf(roots[i], promote)
			if len(children) > 0 {
				st.childData = make([]*value.Record, len(children))
				for ci, cid := range children {
					st.childData[ci] = src.Data(cid)
				}
			}
		}
	}

	stats.Shards += fanOut(n, parallelism, prepare)

	out := hierstore.NewDB(dst)
	sess := hierstore.NewSession(out)
	oldRootType := src.Schema().Root.Name
	var warnings []string
	newRootSeg := dst.Root
	for i := range stagedRoots {
		if i%ctxPollEvery == 0 && ctx.Err() != nil {
			return nil, warnings, ctx.Err()
		}
		st := &stagedRoots[i]
		if st.canceled {
			return nil, warnings, ctx.Err()
		}
		if len(st.childData) == 0 {
			warnings = append(warnings,
				fmt.Sprintf("%s %s has no %s occurrences and is unreachable after reorder",
					oldRootType, st.parentData.String(), promote))
			continue
		}
		for _, cdata := range st.childData {
			ist := sess.ISRT(cdata, hierstore.U(promote))
			if ist == hierstore.II {
				warnings = append(warnings,
					fmt.Sprintf("%s %s promoted once; parents merge beneath it", promote, cdata.String()))
			} else if ist != hierstore.OK {
				return nil, warnings, fmt.Errorf("migrating %s: ISRT status %v", promote, ist)
			}
			seqField := newRootSeg.Seq
			path := []hierstore.SSA{hierstore.U(promote)}
			if seqField != "" {
				path = []hierstore.SSA{hierstore.Q(promote, seqField, hierstore.EQ, cdata.MustGet(seqField))}
			}
			if ist := sess.ISRT(st.parentData, append(path, hierstore.U(oldRootType))...); ist != hierstore.OK {
				return nil, warnings, fmt.Errorf("migrating %s under %s: ISRT status %v", oldRootType, promote, ist)
			}
		}
	}
	return out, warnings, nil
}
