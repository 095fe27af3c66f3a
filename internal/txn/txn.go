// Package txn layers transactions over a core.Database: MVCC snapshot
// reads, WAL-backed group commit, and online ingest.
//
// The design splits the corpus in two. The base is a core.Database —
// R*-tree indexed, query-cached — that is frozen between checkpoints:
// commits never touch it, so readers scan it with an uncontended RLock
// and its query cache stays warm under sustained ingest. The
// delta is an immutable chain of states, each a copy-on-write extension
// of the previous (appended sequences, replaced versions, removals). A
// reader pins one state and serves every query from base + delta filters
// + a linear delta scan, using the same evaluation kernels as the
// indexed path, so results are identical to a fully indexed database
// holding the same content (phase 2 is pure pruning: Dmbr ≤ Dnorm ≤ D).
//
// A single committer goroutine serializes writes: concurrent commit
// requests are batched within a group-commit window, validated and
// applied to a pending state, encoded into one WAL record each, made
// durable with a single fsync, and only then published and acknowledged
// — an acknowledged commit is on disk. Checkpoints fold the delta into
// the base; once the WAL has outgrown the last snapshot, a checkpoint
// also persists an id-preserving base snapshot and compacts the WAL to
// the records after it. Crash recovery loads the snapshot and replays
// the WAL, restoring exactly the acknowledged commits with the same
// sequence ids.
package txn

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/pager"
)

// Options configures a transactional database.
type Options struct {
	// Dir is the durability directory: base snapshots, the CURRENT
	// marker, and the write-ahead log live there. Empty means no
	// durability — MVCC and group commit still work, nothing survives a
	// restart.
	Dir string
	// Dim is the dimensionality of all stored sequences. Required unless
	// Dir holds an existing store, whose recorded dimensionality then
	// applies (and must match Dim when both are set).
	Dim int
	// Partition tunes the MCOST segmentation (zero value → paper
	// defaults). Like Dim it must agree with an existing store.
	Partition core.PartitionConfig
	// NoFsync acknowledges commits without waiting for fsync. Commits
	// are still ordered and atomic, but those in the last unsynced
	// window can be lost in a crash. The log is still synced at every
	// checkpoint and on Close.
	NoFsync bool
	// GroupWindow is how long the committer waits, after the first
	// commit of a batch arrives, for more commits to share the fsync.
	// Zero batches only what is already queued (no added latency).
	GroupWindow time.Duration
	// CheckpointEvery folds the delta into the base automatically after
	// that many committed WAL records (0 = checkpoint only on demand),
	// bounding the per-query delta scan. An automatic fold also persists
	// a snapshot only when the WAL has grown to the last snapshot's size,
	// so recovery replays at most about one snapshot's worth of WAL.
	CheckpointEvery int
	// QuantizedMBR is passed to the base database as
	// core.Options.QuantizedMBR, where it is accepted and has no effect.
	QuantizedMBR bool
}

// DB is a transactional database. It satisfies the same serving surface
// as *core.Database and *shard.ShardedDB (shard.DB), so the layers above
// switch it on with a flag. All methods are safe for concurrent use.
type DB struct {
	base *core.Database
	opts Options
	log  *pager.Log // nil when Dir is empty

	cur atomic.Pointer[state] // latest published state

	// Snapshot pinning: pinGen names the current generation; a snapshot
	// increments pins[pinGen&1]. A checkpoint bumps pinGen and waits for
	// the old generation's pins to drain before mutating the base (see
	// Checkpoint for why draining makes the fold safe).
	pinGen atomic.Uint64
	pins   [2]atomic.Int64

	commitCh chan *commitReq
	ckptKick chan struct{}
	stopCh   chan struct{}
	wg       sync.WaitGroup
	closed   atomic.Bool
	// acceptMu fences commit submission against Close: senders hold the
	// read side across the closed-check + channel send, Close takes the
	// write side before stopping the committer, so every request that
	// enters the channel is drained and answered — an acknowledged
	// commit is never silently dropped at shutdown.
	acceptMu sync.RWMutex

	ckptMu sync.Mutex // serializes Checkpoint; held across fold+persist
	// snapBytes is the size of the promoted snapshot's files (0 without
	// one): the WAL size at which an automatic checkpoint persists.
	// Guarded by ckptMu.
	snapBytes int64

	// Committer-owned (only the committer goroutine touches these after
	// Open/Wrap returns): working maps mirroring cur for O(1) effective
	// lookups during validation, the log offsets of the records after the
	// promoted snapshot, and LSN bookkeeping.
	work     workState
	tailRecs []tailRec // durable mode: records after ckptLSN, for WAL compaction
	tailLen  int       // unfolded record count (both modes), for fold pacing
	nextLSN  uint64
	// ckptLSN is the WAL position the promoted base snapshot holds, where
	// recovery starts; atomic because Stats reads it outside the
	// committer.
	ckptLSN atomic.Uint64

	// wedged is set when the log reaches an unknowable on-disk state (an
	// append failed and could not be truncated away); further commits
	// are refused to keep replay deterministic.
	wedged atomic.Bool

	stats statsCounters
	met   atomic.Pointer[metrics] // nil until SetMetrics
}

// tailRec places one WAL record after the promoted snapshot: end is the
// log offset just past it, so compaction can cut the log there without
// holding any payload.
type tailRec struct {
	lsn uint64
	end int64
}

// ErrClosed is returned by operations on a closed database.
var ErrClosed = errors.New("txn: database closed")

// errWedged is returned for commits after an unrecoverable log failure.
var errWedged = errors.New("txn: write-ahead log in unknown state; commits disabled")

// Wrap builds a non-durable transactional layer over an existing base
// database: MVCC snapshots and group commit without a WAL. The caller
// must stop using base directly — all reads and writes go through the
// returned DB.
func Wrap(base *core.Database, opts Options) (*DB, error) {
	if base == nil {
		return nil, errors.New("txn: nil base database")
	}
	if opts.Dir != "" {
		return nil, errors.New("txn: Wrap is non-durable; use Open for a Dir-backed store")
	}
	opts.Dim = base.Dim()
	opts.Partition = base.PartitionConfig()
	db := newDB(base, opts)
	db.start()
	return db, nil
}

// Open opens (or creates) a durable transactional database in
// opts.Dir: the latest base snapshot is loaded, the WAL tail is
// replayed, and every previously acknowledged commit is visible again
// under its original sequence id. A replayed tail of CheckpointEvery
// records or more is folded at once, not left to the next write.
func Open(opts Options) (*DB, error) {
	if opts.Dir == "" {
		return nil, errors.New("txn: Open requires Dir (use Wrap for a non-durable layer)")
	}
	base, ckptLSN, err := loadBase(&opts)
	if err != nil {
		return nil, err
	}
	db := newDB(base, opts)
	db.ckptLSN.Store(ckptLSN)
	db.snapBytes = snapshotBytes(filepath.Join(opts.Dir, snapName(ckptLSN)))
	db.nextLSN = ckptLSN + 1
	if err := db.openLog(); err != nil {
		base.Close()
		return nil, err
	}
	db.paceFold()
	db.start()
	return db, nil
}

// newDB assembles a DB around base with its initial (empty-delta) state.
func newDB(base *core.Database, opts Options) *DB {
	db := &DB{
		base:     base,
		opts:     opts,
		commitCh: make(chan *commitReq, 64),
		ckptKick: make(chan struct{}, 1),
		stopCh:   make(chan struct{}),
		nextLSN:  1,
	}
	st := &state{
		epoch:    1,
		baseNext: uint32(base.DirLen()),
		live:     base.Len(),
	}
	db.cur.Store(st)
	db.work.reset(st)
	return db
}

// start launches the committer goroutine (and checkpoint pacer).
func (db *DB) start() {
	db.wg.Add(1)
	go func() {
		defer db.wg.Done()
		db.committer()
	}()
	db.wg.Add(1)
	go func() {
		defer db.wg.Done()
		for {
			select {
			case <-db.stopCh:
				return
			case <-db.ckptKick:
				if err := db.checkpoint(false); err != nil {
					db.stats.ckptErrs.Add(1)
				}
			}
		}
	}()
}

// paceFold kicks the checkpoint pacer once CheckpointEvery records are
// unfolded. Called by the committer, and by Open before it starts.
func (db *DB) paceFold() {
	if db.opts.CheckpointEvery > 0 && db.tailLen >= db.opts.CheckpointEvery {
		select {
		case db.ckptKick <- struct{}{}:
		default:
		}
	}
}

// Close stops the committer (letting queued commits finish), syncs the
// log, and closes the base. Acknowledged commits need no checkpoint to
// survive: reopening replays them from the WAL.
func (db *DB) Close() error {
	db.acceptMu.Lock()
	if !db.closed.CompareAndSwap(false, true) {
		db.acceptMu.Unlock()
		return nil
	}
	db.acceptMu.Unlock()
	close(db.stopCh)
	db.wg.Wait()
	var err error
	if db.log != nil {
		if e := db.log.Sync(); e != nil {
			err = e
		}
		if e := db.log.Close(); e != nil && err == nil {
			err = e
		}
	}
	if e := db.base.Close(); e != nil && err == nil {
		err = e
	}
	return err
}

// Flush syncs the WAL and the base's index pages, if file-backed.
func (db *DB) Flush() error {
	if db.log != nil {
		if err := db.log.Sync(); err != nil {
			return err
		}
	}
	return db.base.Flush()
}

// --- write API ----------------------------------------------------------

// Add stores one sequence and returns its id. The write is one commit:
// durable (fsynced, unless NoFsync) before Add returns.
func (db *DB) Add(s *core.Sequence) (uint32, error) {
	return db.AddCtx(context.Background(), s)
}

// AddCtx is Add under a caller context, carried for observability: when
// ctx holds an obs.Trace, the commit is recorded as a span with its op
// count and the WAL group-commit batch size it rode in. The context does
// not cancel a submitted commit — once accepted, a commit is always
// acknowledged (the committer owns durability).
func (db *DB) AddCtx(ctx context.Context, s *core.Sequence) (uint32, error) {
	g, err := db.partitionFor(s)
	if err != nil {
		return 0, err
	}
	res, err := db.commitCtx(ctx, []op{{kind: opAdd, g: g}})
	if err != nil {
		return 0, err
	}
	return res.firstID, nil
}

// AddAll stores a whole batch as one atomic commit: either every
// sequence becomes visible and durable together, or none does. Returned
// ids are dense and in input order.
func (db *DB) AddAll(seqs []*core.Sequence) ([]uint32, error) {
	return db.AddAllCtx(context.Background(), seqs)
}

// AddAllCtx is AddAll under a caller context, carried for observability
// (see AddCtx for the contract).
func (db *DB) AddAllCtx(ctx context.Context, seqs []*core.Sequence) ([]uint32, error) {
	if len(seqs) == 0 {
		return nil, nil
	}
	ops := make([]op, len(seqs))
	for i, s := range seqs {
		g, err := db.partitionFor(s)
		if err != nil {
			return nil, fmt.Errorf("txn: sequence %d: %w", i, err)
		}
		ops[i] = op{kind: opAdd, g: g}
	}
	res, err := db.commitCtx(ctx, ops)
	if err != nil {
		return nil, err
	}
	ids := make([]uint32, len(seqs))
	for i := range ids {
		ids[i] = res.firstID + uint32(i)
	}
	return ids, nil
}

// AppendPoints extends a stored sequence with new points — the online
// ingest path. The extension is committed copy-on-write: pinned
// snapshots keep seeing the previous version.
func (db *DB) AppendPoints(id uint32, pts []geom.Point) error {
	return db.AppendPointsCtx(context.Background(), id, pts)
}

// AppendPointsCtx is AppendPoints under a caller context, carried for
// observability (see AddCtx for the contract).
func (db *DB) AppendPointsCtx(ctx context.Context, id uint32, pts []geom.Point) error {
	if len(pts) == 0 {
		return nil
	}
	dim := db.base.Dim()
	for i, p := range pts {
		if len(p) != dim {
			return fmt.Errorf("txn: appended point %d has dim %d, want %d: %w",
				i, len(p), dim, geom.ErrDimensionMismatch)
		}
	}
	_, err := db.commitCtx(ctx, []op{{kind: opAppend, id: id, pts: pts}})
	return err
}

// Remove deletes the sequence with the given id. The id is never
// reused; pinned snapshots keep seeing the sequence.
func (db *DB) Remove(id uint32) error {
	return db.RemoveCtx(context.Background(), id)
}

// RemoveCtx is Remove under a caller context, carried for observability
// (see AddCtx for the contract).
func (db *DB) RemoveCtx(ctx context.Context, id uint32) error {
	_, err := db.commitCtx(ctx, []op{{kind: opRemove, id: id}})
	return err
}

// partitionFor validates and partitions a sequence for an add, outside
// the committer so the CPU work parallelizes across writers.
func (db *DB) partitionFor(s *core.Sequence) (*core.Segmented, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(s.Label) > maxLabelLen {
		return nil, fmt.Errorf("txn: label of %d bytes exceeds the %d-byte limit", len(s.Label), maxLabelLen)
	}
	if s.Dim() != db.base.Dim() {
		return nil, fmt.Errorf("txn: sequence dim %d, database dim %d: %w",
			s.Dim(), db.base.Dim(), geom.ErrDimensionMismatch)
	}
	return core.NewSegmented(s, db.base.PartitionConfig())
}

// commit submits one atomic batch of ops and waits for the committer's
// acknowledgment (post-fsync when durable).
func (db *DB) commit(ops []op) (commitRes, error) {
	return db.commitCtx(context.Background(), ops)
}

// commitCtx is commit recording an observability span when ctx carries a
// trace: duration enqueue-to-ack, op count, the WAL group size the
// commit was fsynced with, and the outcome. ctx never cancels the
// commit itself.
func (db *DB) commitCtx(ctx context.Context, ops []op) (commitRes, error) {
	tr := obs.FromContext(ctx)
	t0 := time.Now()
	req := &commitReq{ops: ops, resp: make(chan commitRes, 1), enq: t0}
	if err := db.submit(req); err != nil {
		if tr != nil {
			tr.RecordSpan(obs.SpanFromContext(ctx), "commit", time.Since(t0),
				obs.Int("ops", len(ops)), obs.Str("outcome", "rejected"))
		}
		return commitRes{}, err
	}
	// The committer answers every accepted request, draining the queue
	// before it exits, so this wait always resolves.
	res := <-req.resp
	if tr != nil {
		outcome := "ok"
		if res.err != nil {
			outcome = "error"
		}
		tr.RecordSpan(obs.SpanFromContext(ctx), "commit", time.Since(t0),
			obs.Int("ops", len(ops)),
			obs.Int("wal_group", res.group),
			obs.Str("outcome", outcome))
	}
	return res, res.err
}

// submit enqueues a request for the committer under the accept fence.
func (db *DB) submit(req *commitReq) error {
	db.acceptMu.RLock()
	defer db.acceptMu.RUnlock()
	if db.closed.Load() {
		return ErrClosed
	}
	db.commitCh <- req
	return nil
}

// --- transactions -------------------------------------------------------

// Txn stages a multi-operation transaction. Operations are buffered
// locally — nothing is visible or durable until Commit, which applies
// them as one atomic, single-fsync commit. A Txn is not safe for
// concurrent use; discard it after Commit.
type Txn struct {
	db   *DB
	ops  []op
	errs []error
}

// Begin starts an empty transaction.
func (db *DB) Begin() *Txn { return &Txn{db: db} }

// Add stages a sequence insertion. The id it will receive is assigned at
// Commit (ids depend on commit order across writers).
func (t *Txn) Add(s *core.Sequence) {
	g, err := t.db.partitionFor(s)
	if err != nil {
		t.errs = append(t.errs, err)
		return
	}
	t.ops = append(t.ops, op{kind: opAdd, g: g})
}

// AppendPoints stages an extension of an existing sequence.
func (t *Txn) AppendPoints(id uint32, pts []geom.Point) {
	t.ops = append(t.ops, op{kind: opAppend, id: id, pts: pts})
}

// Remove stages a deletion.
func (t *Txn) Remove(id uint32) {
	t.ops = append(t.ops, op{kind: opRemove, id: id})
}

// Commit applies the staged operations atomically and returns the ids
// assigned to staged Adds, in staging order. If any staged operation is
// invalid the whole transaction is rejected and nothing changes.
func (t *Txn) Commit() ([]uint32, error) {
	if len(t.errs) > 0 {
		return nil, t.errs[0]
	}
	if len(t.ops) == 0 {
		return nil, nil
	}
	res, err := t.db.commit(t.ops)
	if err != nil {
		return nil, err
	}
	var ids []uint32
	next := res.firstID
	for _, o := range t.ops {
		if o.kind == opAdd {
			ids = append(ids, next)
			next++
		}
	}
	return ids, nil
}

// searchCanceled mirrors core's context check for the delta scan loops.
func searchCanceled(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}
