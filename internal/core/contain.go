package core

// Fault containment: the boundary every per-rank goroutine runs under, and
// the helpers that classify what it recovers.
//
// A corrupt payload (organic or injected) surfaces as a panic deep in a rank
// goroutine — the decode sits under several layers of exchange machinery with
// no error return path, exactly like a CUDA kernel fault on the real machine.
// The containment boundary recovers the panic, classifies it, and poisons the
// session's World (mpi.World.Abort) so every sibling rank blocked in a
// collective or receive unwinds within the same BSP iteration. The main
// goroutine then observes World.Aborted, marks the Session poisoned (release
// drops it instead of recycling it) and returns the typed error — never a
// partial result.
//
// Classification is deliberately narrow: only errors wrapping wire.ErrCorrupt
// (payload corruption the codecs detected) or faults.ErrInjected (manufactured
// by the chaos machinery) are contained. Anything else — an index out of
// range, a violated invariant — is a genuine bug and re-panics unchanged.

import (
	"errors"
	"fmt"

	"gcbfs/internal/faults"
	"gcbfs/internal/mpi"
	"gcbfs/internal/wire"
)

// tagSite recovers the (iteration, injection site) a message tag encodes, so
// payload faults key on the same coordinates as boundary faults. The tag
// spaces are disjoint by construction: parent resolution at parentTagBase
// (1<<30) and above, repair probes at probeTag (1<<29), and everything below
// is the iteration-keyed hop/fragment space (hopTag, fragTag).
func tagSite(tag int) (int, string) {
	switch {
	case tag >= parentTagBase:
		return tag - parentTagBase, faults.SiteParents
	case tag >= probeTag:
		return tag - probeTag, faults.SiteProbe
	default:
		return tag / 64, faults.SiteExchange
	}
}

// armWorldAs is armWorld with the exchange-space site renamed — the sweep's
// record exchange reuses the hop-tag space but is a distinct injection site.
func armWorldAs(w *mpi.World, in *faults.Injector, exchangeSite string) {
	if in == nil {
		w.SetSendHook(nil)
		return
	}
	w.SetSendHook(func(src, dst, tag int, data []byte) []byte {
		iter, site := tagSite(tag)
		if site == faults.SiteExchange {
			site = exchangeSite
		}
		return in.Payload(src, iter, site, data)
	})
}

// corruptErr wraps a decoder error for the containment panic, guaranteeing
// wire.ErrCorrupt is in the chain even when the error came from a plain
// (non-codec) unpack path.
func corruptErr(context string, err error) error {
	if errors.Is(err, wire.ErrCorrupt) {
		return fmt.Errorf("%s: %w", context, err)
	}
	return fmt.Errorf("%s: %v: %w", context, err, wire.ErrCorrupt)
}

// ContainRank is the recover boundary every per-rank goroutine defers
// directly (defer ContainRank(world, "core", rank)) — core's BSP loops and
// the concomp and pagerank engines alike. A contained fault poisons the
// world with an error prefixed "<scope>: rank <rank>:", aborting every
// sibling rank; the secondary abort panics those siblings throw while
// unwinding are swallowed (the first fault already carries the error);
// everything else re-panics. Only errors wrapping wire.ErrCorrupt or
// faults.ErrInjected are contained (see the file comment).
func ContainRank(world *mpi.World, scope string, rank int) {
	v := recover()
	if v == nil {
		return
	}
	if _, ok := mpi.AbortError(v); ok {
		return
	}
	if err, ok := v.(error); ok && (errors.Is(err, wire.ErrCorrupt) || errors.Is(err, faults.ErrInjected)) {
		world.Abort(fmt.Errorf("%s: rank %d: %w", scope, rank, err))
		return
	}
	panic(v)
}
