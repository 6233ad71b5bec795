package fuzzgen

import (
	"fmt"

	"dynslice/internal/ir"
	"dynslice/internal/slicing"
	"dynslice/internal/slicing/explain"
	"dynslice/internal/slicing/oracle"
)

// Witness validation: beyond comparing slice *sets* against the oracle,
// rerun observed queries on the OPT variants and check the dependence
// *paths* they report. Every slice member must have a complete witness
// chain back to the criterion, and every hop of every chain must
// correspond to a dependence the oracle saw actually exercised — data,
// control, or use-to-use at the statement level, or (for shortcut hops,
// which collapse a chain into one step) transitive reachability over
// their union. A wrong inferred edge that happens to land inside the
// correct slice set is invisible to set comparison; it is exactly what
// this check catches.

// witnessTarget reports whether variant v participates in witness
// validation: the OPT configurations whose graph answers observed
// queries directly (resident and hybrid; the pipelined build shares the
// same traversal code, so re-checking it buys nothing per subject).
func witnessTarget(v Variant) bool {
	return v.Alg == "OPT" && !v.Pipelined
}

// justified reports whether one witness hop names a dependence the
// oracle observed.
func justified(d *oracle.Deps, h explain.Hop) bool {
	switch {
	case h.Kind == explain.KindShortcut:
		return d.Reachable(h.FromStmt, h.ToStmt)
	case h.Kind == explain.KindInferredOPT2:
		return d.UseUse(h.FromStmt, h.ToStmt)
	case h.CD:
		return d.Control(h.FromStmt, h.ToStmt)
	default:
		return d.Data(h.FromStmt, h.ToStmt)
	}
}

// checkWitnesses runs one observed query on ex and validates the result:
// the slice must equal the oracle's, every member must produce a
// complete witness, and every hop must be justified. Failures come back
// as Divergences under the variant name suffixed "/witness".
func checkWitnesses(p *ir.Program, deps *oracle.Deps, want *slicing.Slice, ex slicing.Explainer, c slicing.Criterion, variant string) []Divergence {
	name := variant + "/witness"
	rec := explain.NewRecorder()
	got, _, err := ex.SliceObserved(c, rec)
	if err != nil {
		return []Divergence{{Variant: name, Addr: c.Addr, Err: err.Error()}}
	}
	if !want.Equal(got) {
		return []Divergence{{
			Variant: name, Addr: c.Addr,
			Want: Describe(p, want), Got: Describe(p, got),
		}}
	}
	var out []Divergence
	for _, id := range got.Stmts() {
		w, ok := rec.Witness(id)
		if !ok || !w.Complete {
			out = append(out, Divergence{
				Variant: name, Addr: c.Addr,
				Err: fmt.Sprintf("no complete witness for slice member s%d@%s", id, p.Stmt(id).Pos),
			})
			continue
		}
		for _, h := range w.Hops {
			if justified(deps, h) {
				continue
			}
			out = append(out, Divergence{
				Variant: name, Addr: c.Addr,
				Err: fmt.Sprintf("unjustified %s hop s%d -> s%d (cd=%v) in witness for s%d",
					h.Kind, h.FromStmt, h.ToStmt, h.CD, id),
			})
		}
	}
	return out
}
