package txn

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/pager"
)

// maxGroup bounds how many requests share one fsync, keeping the encoded
// record memory of a group modest even under a long window.
const maxGroup = 1024

// committer is the single writer goroutine: it serializes all state
// transitions, so the append-only sharing of state slices needs no
// locks. Requests are drained in batches (group commit), each batch
// made durable with one fsync before any of its requests is
// acknowledged.
func (db *DB) committer() {
	for {
		select {
		case req := <-db.commitCh:
			db.processBatch(db.collectBatch(req))
		case <-db.stopCh:
			// Drain: every request that entered the channel gets a
			// definitive, durable answer before shutdown.
			for {
				select {
				case req := <-db.commitCh:
					db.processBatch([]*commitReq{req})
				default:
					return
				}
			}
		}
	}
}

// collectBatch gathers requests to share one fsync: everything already
// queued, plus — when a group-commit window is configured — whatever
// arrives within the window of the first request.
func (db *DB) collectBatch(first *commitReq) []*commitReq {
	batch := []*commitReq{first}
	if db.opts.GroupWindow > 0 && first.rebase == nil {
		timer := time.NewTimer(db.opts.GroupWindow)
		defer timer.Stop()
	window:
		for len(batch) < maxGroup {
			select {
			case req := <-db.commitCh:
				batch = append(batch, req)
				if req.rebase != nil {
					break window // rebase barrier: flush what we have
				}
			case <-timer.C:
				break window
			case <-db.stopCh:
				break window
			}
		}
		return batch
	}
	for len(batch) < maxGroup {
		select {
		case req := <-db.commitCh:
			batch = append(batch, req)
			if req.rebase != nil {
				return batch
			}
		default:
			return batch
		}
	}
	return batch
}

// processBatch validates, applies, logs, fsyncs, publishes, and acks one
// batch. A rebase request inside the batch acts as a barrier: the group
// before it is flushed, then the state is rebased onto the new fold
// point.
func (db *DB) processBatch(reqs []*commitReq) {
	pend := db.beginPending()
	var group []*commitReq
	var recs []logRec
	for _, req := range reqs {
		if req.rebase != nil {
			pend = db.flushGroup(pend, group, recs)
			group, recs = nil, nil
			db.handleRebase(req)
			pend = db.beginPending()
			continue
		}
		firstID, rec, err := db.applyReq(pend, req)
		if err != nil {
			req.res = commitRes{err: err}
			req.resp <- req.res
			continue
		}
		req.res = commitRes{firstID: firstID}
		group = append(group, req)
		recs = append(recs, rec)
	}
	db.flushGroup(pend, group, recs)
}

// beginPending starts a mutable working copy of the current state and
// points the committer's mirror maps at it.
func (db *DB) beginPending() *state {
	cur := db.cur.Load()
	pend := &state{
		epoch:    cur.epoch,
		lastLSN:  cur.lastLSN,
		baseNext: cur.baseNext,
		live:     cur.live,
		adds:     cur.adds,
		overlays: cur.overlays,
		removed:  cur.removed,
	}
	db.work.st = pend
	return pend
}

// discardPending abandons a pending state whose group could not be made
// durable. Restarting from the published state is not enough on its own:
// the committer's mirror maps still carry the discarded group's
// mutations (an overlayIdx entry pointing past the pending overlays, a
// removedSet entry for a live id), so they are rebuilt from the fresh
// state; and the group's LSNs were never published, so they are returned
// to keep the LSN sequence gap-free (handleRebase sizes the tail by LSN
// arithmetic).
func (db *DB) discardPending(recs []logRec) *state {
	db.nextLSN -= uint64(len(recs))
	pend := db.beginPending()
	db.work.reset(pend)
	return pend
}

// flushGroup makes the group's records durable, publishes the pending
// state, and acknowledges the requests — in that order, so an
// acknowledged commit is always on disk (unless NoFsync) and always
// readable by its own writer. Returns the state to keep building on.
func (db *DB) flushGroup(pend *state, group []*commitReq, recs []logRec) *state {
	if len(group) == 0 {
		return pend
	}
	if db.wedged.Load() {
		for _, req := range group {
			req.resp <- commitRes{err: errWedged}
		}
		return db.discardPending(recs)
	}
	if db.log != nil {
		preSize := db.log.Size()
		preTail := len(db.tailRecs)
		err := func() error {
			for _, r := range recs {
				if err := db.log.Append(r.payload); err != nil {
					return err
				}
				db.tailRecs = append(db.tailRecs, tailRec{lsn: r.lsn, end: db.log.Size()})
			}
			if !db.opts.NoFsync {
				if err := db.log.Sync(); err != nil {
					return err
				}
				db.stats.fsyncs.Add(1)
			}
			return nil
		}()
		if err != nil {
			// Durability failed: nothing publishes, everyone is told.
			// Cut any half-appended records back out of the log so a
			// later crash cannot resurrect commits that were never
			// acknowledged (replay order assigns add ids — a phantom
			// record would shift every id after it). If even the
			// truncate fails the log contents are unknowable: wedge the
			// database, refusing further commits rather than risk id
			// divergence after a crash.
			if terr := db.log.Truncate(preSize); terr != nil {
				db.wedged.Store(true)
			}
			db.tailRecs = db.tailRecs[:preTail]
			for _, req := range group {
				req.resp <- commitRes{err: fmt.Errorf("txn: commit not durable: %w", err)}
			}
			return db.discardPending(recs)
		}
		for _, r := range recs {
			db.stats.walBytes.Add(uint64(len(r.payload)))
		}
	}
	pend.epoch++
	pend.lastLSN = recs[len(recs)-1].lsn
	db.cur.Store(pend)
	if db.tailLen == 0 {
		// Tail was empty: this group starts a new unfolded span.
		db.stats.tailSince.Store(time.Now().UnixNano())
	}
	db.tailLen += len(recs)
	db.stats.commits.Add(uint64(len(group)))
	db.stats.records.Add(uint64(len(recs)))
	db.stats.groups.Add(1)
	if m := db.met.Load(); m != nil {
		m.groupSize.Observe(float64(len(group)))
		m.records.Add(uint64(len(recs)))
		now := time.Now()
		for _, req := range group {
			m.commitLatency.Observe(now.Sub(req.enq).Seconds())
		}
		if db.log != nil {
			if !db.opts.NoFsync {
				m.fsyncs.Inc()
			}
			for _, r := range recs {
				m.walBytes.Add(uint64(len(r.payload)))
			}
		}
	}
	for _, req := range group {
		req.res.group = len(group)
		req.resp <- req.res
	}
	db.paceFold()
	return db.beginPending()
}

// logRec is one commit record on its way to the log: its LSN and, in
// durable mode, its encoded payload, which lives only until the group's
// append.
type logRec struct {
	lsn     uint64
	payload []byte
}

// applyReq validates and applies one request's ops onto pend and encodes
// its WAL record. On error pend (and the mirror maps) are left exactly
// as before the call and no LSN is consumed.
func (db *DB) applyReq(pend *state, req *commitReq) (firstID uint32, rec logRec, err error) {
	// Reject a commit the record format (or the log) cannot carry before
	// applying anything, so one oversized request fails alone instead of
	// failing its whole group at append time.
	if len(req.ops) > maxRecOps {
		return 0, logRec{}, fmt.Errorf("txn: commit of %d ops exceeds the %d-op record limit; split the batch", len(req.ops), maxRecOps)
	}
	if db.log != nil {
		if n := recordSize(req.ops, db.base.Dim()); n > pager.MaxLogRecord {
			return 0, logRec{}, fmt.Errorf("txn: commit encodes to %d bytes, exceeding the %d-byte WAL record limit; split the batch", n, pager.MaxLogRecord)
		}
	}
	firstID, err = db.applyOps(pend, req.ops)
	if err != nil {
		return 0, logRec{}, err
	}
	lsn := db.nextLSN
	db.nextLSN++
	rec = logRec{lsn: lsn}
	if db.log != nil {
		rec.payload = encodeRecord(lsn, req.ops, db.base.Dim())
	}
	return firstID, rec, nil
}

// applyOps applies one atomic batch of ops to pend, keeping the
// committer's mirror maps in sync. All-or-nothing: on any failure every
// effect is undone before returning. firstID is the id assigned to the
// first opAdd (adds in a batch get consecutive ids).
func (db *DB) applyOps(pend *state, ops []op) (firstID uint32, err error) {
	undo := reqUndo{
		adds:     len(pend.adds),
		overlays: len(pend.overlays),
		removed:  len(pend.removed),
		live:     pend.live,
	}
	w := &db.work
	firstAdd := true
	for i := range ops {
		o := &ops[i]
		switch o.kind {
		case opAdd:
			g := o.g
			if g == nil {
				// WAL replay: partition the decoded sequence now.
				g, err = core.NewSegmented(o.seqFromLog, db.base.PartitionConfig())
				if err != nil {
					break
				}
				o.g = g
			}
			id := pend.baseNext + uint32(len(pend.adds))
			g.Seq.ID = id
			pend.adds = append(pend.adds, g)
			pend.live++
			if firstAdd {
				firstID = id
				firstAdd = false
			}
		case opAppend:
			eff := w.effective(o.id, db.base)
			if eff == nil {
				err = fmt.Errorf("%w: %d", core.ErrUnknownSequence, o.id)
				break
			}
			var ng *core.Segmented
			ng, err = core.AppendToSegmented(eff, o.pts, db.base.PartitionConfig())
			if err != nil {
				break
			}
			ng.Seq.ID = o.id
			if prev, ok := w.overlayIdx[o.id]; ok {
				undo.prevOverlay = append(undo.prevOverlay, overlayUndo{id: o.id, idx: prev, had: true})
			} else {
				undo.prevOverlay = append(undo.prevOverlay, overlayUndo{id: o.id})
			}
			pend.overlays = append(pend.overlays, overlayEntry{id: o.id, g: ng})
			w.overlayIdx[o.id] = len(pend.overlays) - 1
		case opRemove:
			if w.effective(o.id, db.base) == nil {
				err = fmt.Errorf("%w: %d", core.ErrUnknownSequence, o.id)
				break
			}
			pend.removed = append(pend.removed, o.id)
			w.removedSet[o.id] = struct{}{}
			undo.removedIDs = append(undo.removedIDs, o.id)
			pend.live--
		default:
			err = fmt.Errorf("txn: unknown op kind %#x", o.kind)
		}
		if err != nil {
			undo.apply(pend, w)
			return 0, err
		}
	}
	return firstID, nil
}

// reqUndo records what one request changed, so a mid-request failure can
// restore the pending state exactly.
type reqUndo struct {
	adds, overlays, removed int
	live                    int
	prevOverlay             []overlayUndo
	removedIDs              []uint32
}

// overlayUndo remembers the mirror-map slot an overlay displaced.
type overlayUndo struct {
	id  uint32
	idx int
	had bool
}

// apply rolls pend and the mirror maps back to the recorded marks.
func (u *reqUndo) apply(pend *state, w *workState) {
	pend.adds = pend.adds[:u.adds]
	pend.overlays = pend.overlays[:u.overlays]
	pend.removed = pend.removed[:u.removed]
	pend.live = u.live
	for i := len(u.prevOverlay) - 1; i >= 0; i-- {
		p := u.prevOverlay[i]
		if p.had {
			w.overlayIdx[p.id] = p.idx
		} else {
			delete(w.overlayIdx, p.id)
		}
	}
	for _, id := range u.removedIDs {
		delete(w.removedSet, id)
	}
}

// handleRebase atomically switches the published state to post-fold
// coordinates: the folded delta prefix is dropped (the base now serves
// it). After a persist the checkpoint LSN also advances and the WAL is
// compacted. Runs in the committer so no commit interleaves with the
// switch.
func (db *DB) handleRebase(req *commitReq) {
	rb := req.rebase
	cur := db.cur.Load()
	ns := &state{
		epoch:    cur.epoch + 1,
		lastLSN:  cur.lastLSN,
		baseNext: rb.newBaseNext,
		live:     cur.live,
		adds:     append([]*core.Segmented(nil), cur.adds[rb.cutAdds:]...),
		overlays: append([]overlayEntry(nil), cur.overlays[rb.cutOverlays:]...),
		removed:  append([]uint32(nil), cur.removed[rb.cutRemoved:]...),
	}
	db.cur.Store(ns)
	db.work.reset(ns)
	db.tailLen = int(db.nextLSN - 1 - rb.cutLSN)
	if db.tailLen == 0 {
		db.stats.tailSince.Store(0)
	}
	// (A non-empty surviving tail began before this fold; its age
	// carries over.)

	var err error
	if rb.persisted {
		db.ckptLSN.Store(rb.cutLSN)
		err = db.compactLog(rb.cutLSN)
	}
	req.resp <- commitRes{err: err}
}

// compactLog drops the records up to cutLSN, which the promoted snapshot
// holds, from the tail and cuts them off the front of the WAL. A failed
// rewrite is not fatal: recovery skips those records by LSN, the log
// just stays fat until the next persist cuts further, and the kept
// offsets still place the records in the uncut file.
func (db *DB) compactLog(cutLSN uint64) error {
	n := 0
	for n < len(db.tailRecs) && db.tailRecs[n].lsn <= cutLSN {
		n++
	}
	if n == 0 {
		return nil
	}
	off := db.tailRecs[n-1].end
	db.tailRecs = append(db.tailRecs[:0], db.tailRecs[n:]...)
	before := db.log.Size()
	err := db.log.RewriteFrom(off)
	if shift := before - db.log.Size(); shift != 0 {
		for i := range db.tailRecs {
			db.tailRecs[i].end -= shift
		}
	}
	return err
}

// rebaseReq tells the committer where a completed fold cut the delta.
type rebaseReq struct {
	cutAdds     int
	cutOverlays int
	cutRemoved  int
	cutLSN      uint64
	newBaseNext uint32
	// persisted reports that the snapshot at cutLSN was promoted (always
	// so without a log, where every fold is the recovery point).
	persisted bool
}
