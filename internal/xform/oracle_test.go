package xform

import (
	"fmt"

	"progconv/internal/hierstore"
	"progconv/internal/netstore"
	"progconv/internal/schema"
	"progconv/internal/value"
)

// The test oracle: a naive, record-at-a-time interpreter of the per-step
// data restructurings the migration engine (Plan.Migrate, HierPlan.Migrate)
// is checked against byte for byte. It reads the same rebuildFns the
// engine compiles, so checks that do not interpret them — the pinned
// Figure 4.4 dumps and error literals, the InversePlan round trip — keep
// it honest.

// migrateStepwise runs p one full-database serialRebuild pass per step,
// with the engine's per-step error wrapping.
func migrateStepwise(p *Plan, src *netstore.DB) (*netstore.DB, error) {
	cur := src
	for _, t := range p.Steps {
		next, err := t.ApplySchema(cur.Schema())
		if err != nil {
			return nil, fmt.Errorf("xform: %s: %w", t.Name(), err)
		}
		f, err := t.dataFns(cur.Schema())
		if err == nil {
			cur, err = serialRebuild(cur, next, f)
		}
		if err != nil {
			return nil, fmt.Errorf("xform: %s: %w", t.Name(), err)
		}
	}
	return cur, nil
}

// serialRebuild copies src into a fresh database under dst, applying f
// with one StoreWith per record. Record types are processed owners-first
// so that destination memberships can be wired as occurrences appear.
// A route re-homes its set's links: an introduce route stores the
// intermediate of (destination owner, group value) the first time a
// member meets the pair; a collapse route pushes the intermediate's
// group field back into the member and links it under the
// intermediate's own owner.
func serialRebuild(src *netstore.DB, dst *schema.Network, f rebuildFns) (*netstore.DB, error) {
	out := netstore.NewDB(dst)
	idMap := map[netstore.RecordID]netstore.RecordID{}
	inters := map[interKey]netstore.RecordID{}
	rt := f.route
	srcSchema := src.Schema()
	for _, srcType := range topoRecordOrder(srcSchema) {
		dstType := srcType
		if f.mapType != nil {
			dstType = f.mapType(srcType)
		}
		if dstType == "" {
			continue
		}
		memberSets := srcSchema.SetsWithMember(srcType)
		var visitErr error
		// EachOf iterates src without copying; only out is mutated here,
		// so the no-mutation-during-visit contract holds.
		src.EachOf(srcType, func(id netstore.RecordID) bool {
			data := src.StoredData(id)
			if f.mapData != nil {
				data = f.mapData(srcType, data)
			}
			memberships := map[string]netstore.RecordID{}
			for _, set := range memberSets {
				owner, connected := src.OwnerOf(set.Name, id)
				if !connected {
					continue
				}
				dstSet := set.Name
				if f.mapSet != nil {
					dstSet = f.mapSet(set.Name)
				}
				if dstSet == "" {
					continue
				}
				if set.IsSystem() {
					memberships[dstSet] = netstore.OwnerSystem
					continue
				}
				routed := rt != nil && srcType == rt.member && set.Name == rt.set
				if routed && rt.inter == "" {
					data.Set(rt.field, src.StoredData(owner).MustGet(rt.field))
					grand, ok := src.OwnerOf(rt.upper, owner)
					if !ok {
						visitErr = fmt.Errorf("xform: intermediate %d has no %s owner", owner, rt.upper)
						return false
					}
					dstOwner, ok := idMap[grand]
					if !ok {
						visitErr = fmt.Errorf("xform: owner of intermediate not yet migrated")
						return false
					}
					memberships[dstSet] = dstOwner
					continue
				}
				dstOwner, ok := idMap[owner]
				switch {
				case !ok && rt == nil:
					visitErr = fmt.Errorf("xform: %s occurrence's owner in %s not yet migrated", srcType, set.Name)
					return false
				case !ok:
					visitErr = fmt.Errorf("xform: owner of %s in %s not yet migrated", srcType, set.Name)
					return false
				case routed:
					// The member keeps its group field in data; StoreWith
					// drops it because it is virtual in dst.
					gv := data.MustGet(rt.field)
					k := interKey{dstOwner, gv.Key()}
					interID, have := inters[k]
					if !have {
						rec := value.NewRecord()
						rec.Set(rt.field, gv)
						if interID, visitErr = out.StoreWith(rt.inter, rec,
							map[string]netstore.RecordID{rt.upper: dstOwner}); visitErr != nil {
							return false
						}
						inters[k] = interID
					}
					memberships[dstSet] = interID
				default:
					memberships[dstSet] = dstOwner
				}
			}
			nid, err := out.StoreWith(dstType, data, memberships)
			if err != nil {
				visitErr = err
				return false
			}
			idMap[id] = nid
			return true
		})
		if visitErr != nil {
			return nil, visitErr
		}
	}
	return out, nil
}

// serialHierReorder is the reference hierarchical reorder: each promoted
// occurrence becomes a root, with a copy of its former parent beneath
// it. Parent occurrences with no promoted children are dropped (they are
// unreachable in the new order) — the migration reports them.
func serialHierReorder(t HierReorder, src *hierstore.DB, dst *schema.Hierarchy) (*hierstore.DB, []string, error) {
	out := hierstore.NewDB(dst)
	sess := hierstore.NewSession(out)
	oldRootType := src.Schema().Root.Name
	var warnings []string
	newRootSeg := dst.Root
	for _, rootID := range src.Roots() {
		parentData := src.Data(rootID)
		children := src.ChildrenOf(rootID, t.Promote)
		if len(children) == 0 {
			warnings = append(warnings,
				fmt.Sprintf("%s %s has no %s occurrences and is unreachable after reorder",
					oldRootType, parentData.String(), t.Promote))
			continue
		}
		for _, cid := range children {
			cdata := src.Data(cid)
			st := sess.ISRT(cdata, hierstore.U(t.Promote))
			if st == hierstore.II {
				// The child already exists as a root (promoted from another
				// parent occurrence); the new root is shared.
				warnings = append(warnings,
					fmt.Sprintf("%s %s promoted once; parents merge beneath it", t.Promote, cdata.String()))
			} else if st != hierstore.OK {
				return nil, warnings, fmt.Errorf("migrating %s: ISRT status %v", t.Promote, st)
			}
			seqField := newRootSeg.Seq
			path := []hierstore.SSA{hierstore.U(t.Promote)}
			if seqField != "" {
				path = []hierstore.SSA{hierstore.Q(t.Promote, seqField, hierstore.EQ, cdata.MustGet(seqField))}
			}
			if st := sess.ISRT(parentData, append(path, hierstore.U(oldRootType))...); st != hierstore.OK {
				return nil, warnings, fmt.Errorf("migrating %s under %s: ISRT status %v", oldRootType, t.Promote, st)
			}
		}
	}
	return out, warnings, nil
}
