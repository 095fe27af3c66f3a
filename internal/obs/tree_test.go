package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)

	sctx, endScatter := StartSpan(ctx, "scatter")
	_, endShard0 := StartSpan(sctx, "shard")
	endShard0(Int("shard", 0), Bool("ok", true))
	_, endShard1 := StartSpan(sctx, "shard")
	endShard1(Int("shard", 1), Bool("ok", false))
	// Post-hoc child recording against the active span in sctx.
	tr.RecordSpan(SpanFromContext(sctx), "merge", time.Microsecond, Int("rows", 7))
	endScatter(Int("shards", 2))

	snap := tr.Snapshot()
	if len(snap.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(snap.Spans))
	}
	var scatter *SpanSnapshot
	for i := range snap.Spans {
		if snap.Spans[i].Name == "scatter" {
			scatter = &snap.Spans[i]
		}
	}
	if scatter == nil {
		t.Fatal("scatter span missing")
	}
	if scatter.Parent != 0 {
		t.Fatalf("scatter.Parent = %d, want root", scatter.Parent)
	}
	var children int
	for _, sp := range snap.Spans {
		if sp.Parent == scatter.ID {
			children++
			if sp.Name != "shard" && sp.Name != "merge" {
				t.Fatalf("unexpected child %q of scatter", sp.Name)
			}
		}
	}
	if children != 3 {
		t.Fatalf("scatter has %d children, want 3 (2 shards + merge)", children)
	}
}

func TestStartSpanWithoutTraceIsFree(t *testing.T) {
	ctx := context.Background()
	ctx2, end := StartSpan(ctx, "phantom")
	if ctx2 != ctx {
		t.Fatal("traceless StartSpan must return the context unchanged")
	}
	end(Int("ignored", 1)) // must not panic
	if n := testing.AllocsPerRun(100, func() {
		_, end := StartSpan(ctx, "phantom")
		end()
	}); n != 0 {
		t.Fatalf("traceless StartSpan allocates %v times per call, want 0", n)
	}
}

func TestSnapshotStatusDerivation(t *testing.T) {
	ok := NewTrace()
	if s := ok.Snapshot(); s.Status != "ok" {
		t.Fatalf("fresh trace status %q, want ok", s.Status)
	}
	failed := NewTrace()
	failed.MarkError("first")
	failed.MarkError("second") // first MarkError wins
	s := failed.Snapshot()
	if s.Status != "error" || s.Err != "first" {
		t.Fatalf("status %q err %q, want error/first", s.Status, s.Err)
	}
}

func TestWriteTreeRendersNestedSpans(t *testing.T) {
	tr := NewTraceWithID("req-tree-1")
	ctx := WithTrace(context.Background(), tr)
	sctx, endScatter := StartSpan(ctx, "scatter")
	_, endShard := StartSpan(sctx, "shard")
	endShard(Int("shard", 3))
	endScatter(Int("shards", 4))
	tr.SetAttrs(Str("path", "/search"))
	tr.MarkError("boom")

	var b strings.Builder
	tr.Snapshot().WriteTree(&b)
	out := b.String()

	if !strings.Contains(out, "trace req-tree-1") {
		t.Fatalf("header missing trace ID:\n%s", out)
	}
	if !strings.Contains(out, "status=error") {
		t.Fatalf("header missing status:\n%s", out)
	}
	if !strings.Contains(out, "path=/search") {
		t.Fatalf("header missing trace attrs:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var scatterIndent, shardIndent = -1, -1
	for _, l := range lines {
		trimmed := strings.TrimLeft(l, " ")
		switch {
		case strings.HasPrefix(trimmed, "scatter "):
			scatterIndent = len(l) - len(trimmed)
			if !strings.Contains(l, "shards=4") {
				t.Fatalf("scatter line lost attrs: %q", l)
			}
		case strings.HasPrefix(trimmed, "shard "):
			shardIndent = len(l) - len(trimmed)
			if !strings.Contains(l, "shard=3") {
				t.Fatalf("shard line lost attrs: %q", l)
			}
		}
	}
	if scatterIndent < 0 || shardIndent < 0 {
		t.Fatalf("span lines missing:\n%s", out)
	}
	if shardIndent <= scatterIndent {
		t.Fatalf("shard (indent %d) not nested under scatter (indent %d):\n%s", shardIndent, scatterIndent, out)
	}
}

func TestWriteTreeReRootsOrphans(t *testing.T) {
	tr := NewTrace()
	tr.RecordSpan(99, "orphan", time.Millisecond) // parent never recorded
	var b strings.Builder
	tr.Snapshot().WriteTree(&b)
	if !strings.Contains(b.String(), "orphan") {
		t.Fatalf("orphan span dropped from tree:\n%s", b.String())
	}
}

func TestValidRequestIDTable(t *testing.T) {
	valid := []string{"a", "req-1", "A.b_c-9", strings.Repeat("x", 64)}
	for _, id := range valid {
		if !ValidRequestID(id) {
			t.Errorf("ValidRequestID(%q) = false, want true", id)
		}
	}
	invalid := []string{"", strings.Repeat("x", 65), "has space", "new\nline", "semi;colon", "é", `quote"id`}
	for _, id := range invalid {
		if ValidRequestID(id) {
			t.Errorf("ValidRequestID(%q) = true, want false", id)
		}
	}
}
