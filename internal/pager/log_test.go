package pager

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// logRecords opens the log at path and collects every valid record.
func logRecords(t *testing.T, path string) [][]byte {
	t.Helper()
	var got [][]byte
	l, err := OpenLog(path, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return got
}

func TestLogAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "txn.wal")
	l, err := OpenLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 50; i++ {
		rec := []byte(fmt.Sprintf("record-%03d-%s", i, string(make([]byte, i%7))))
		want = append(want, rec)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := logRecords(t, path)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestLogCrashTortureTruncate simulates a crash at every possible byte
// offset of a populated log: for each truncation point, reopening must
// yield a clean prefix of the appended records — never a torn or invented
// record — and the log must keep accepting appends afterwards.
func TestLogCrashTortureTruncate(t *testing.T) {
	dir := t.TempDir()
	master := filepath.Join(dir, "master.wal")
	l, err := OpenLog(master, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	offsets := []int64{l.Size()} // offsets[i] = log size after i records
	for i := 0; i < 12; i++ {
		rec := []byte(fmt.Sprintf("payload-%02d-%s", i, string(bytes.Repeat([]byte{byte(i)}, i*3))))
		want = append(want, rec)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, l.Size())
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(master)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()

	for cut := int64(0); cut <= int64(len(full)); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.wal", cut))
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got := logRecords(t, path)
		// The replayed records must be exactly the records whose full
		// extent fits below the cut.
		wantN := 0
		for wantN < len(want) && offsets[wantN+1] <= cut {
			wantN++
		}
		if len(got) != wantN {
			t.Fatalf("cut at %d: replayed %d records, want %d", cut, len(got), wantN)
		}
		for i := 0; i < wantN; i++ {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("cut at %d: record %d = %q, want %q", cut, i, got[i], want[i])
			}
		}
		// The reopened log must accept a fresh append cleanly.
		l2, err := OpenLog(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := l2.Append([]byte("after-crash")); err != nil {
			t.Fatal(err)
		}
		if err := l2.Sync(); err != nil {
			t.Fatal(err)
		}
		l2.Close()
		got2 := logRecords(t, path)
		if len(got2) != wantN+1 || string(got2[wantN]) != "after-crash" {
			t.Fatalf("cut at %d: post-crash append not recovered (have %d records)", cut, len(got2))
		}
		os.Remove(path)
	}
}

// TestLogCrashTortureCorrupt flips random bytes inside the log body and
// asserts the corrupted record and everything after it are discarded
// while every record before it survives intact.
func TestLogCrashTortureCorrupt(t *testing.T) {
	dir := t.TempDir()
	master := filepath.Join(dir, "master.wal")
	l, err := OpenLog(master, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	offsets := []int64{l.Size()}
	for i := 0; i < 10; i++ {
		rec := bytes.Repeat([]byte{byte('a' + i)}, 5+i*4)
		want = append(want, rec)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, l.Size())
	}
	l.Sync()
	full, err := os.ReadFile(master)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		pos := int64(len(logMagic)) + rng.Int63n(int64(len(full))-int64(len(logMagic)))
		path := filepath.Join(dir, fmt.Sprintf("corrupt-%d.wal", trial))
		img := append([]byte(nil), full...)
		img[pos] ^= 0xff
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		got := logRecords(t, path)
		// Every record wholly before the corrupted byte must survive;
		// the record containing it must not. (A flipped length field can
		// also swallow later records — prefix property is what matters.)
		intact := 0
		for intact < len(want) && offsets[intact+1] <= pos {
			intact++
		}
		if len(got) > len(want) {
			t.Fatalf("trial %d: invented records (%d > %d)", trial, len(got), len(want))
		}
		if len(got) < intact {
			t.Fatalf("trial %d (byte %d): lost intact records: replayed %d, want at least %d",
				trial, pos, len(got), intact)
		}
		for i := 0; i < len(got) && i < intact; i++ {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("trial %d: record %d corrupted in replay", trial, i)
			}
		}
		// The record containing the flipped byte must be rejected, except
		// when the flip landed in a record that scanning never reached.
		if len(got) > intact {
			// got[intact] replayed despite corruption inside its extent —
			// only legal if the corruption was after scanning stopped,
			// which cannot happen for a replayed record.
			t.Fatalf("trial %d: corrupt record %d replayed", trial, intact)
		}
		os.Remove(path)
	}
}

// TestRewriteFrom checks checkpoint compaction: from every record
// boundary of a log whose file ends in a torn record, RewriteFrom keeps
// exactly the records from that boundary on, the replaced file replays
// them, appends after the rewrite land after them, and an offset outside
// the log is refused with the log unchanged.
func TestRewriteFrom(t *testing.T) {
	dir := t.TempDir()
	master := filepath.Join(dir, "master.wal")
	l, err := OpenLog(master, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	offsets := []int64{l.Size()} // offsets[i] = boundary before record i
	for i := 0; i < 9; i++ {
		rec := []byte(fmt.Sprintf("rec-%d-%s", i, bytes.Repeat([]byte{'x'}, i*5)))
		want = append(want, rec)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, l.Size())
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	full, err := os.ReadFile(master)
	if err != nil {
		t.Fatal(err)
	}
	// A torn tail: the length and half the payload of a record the crash
	// cut short.
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 40)
	torn := append(append(append([]byte(nil), full...), hdr[:]...), "half a rec"...)

	for k, off := range offsets {
		path := filepath.Join(dir, fmt.Sprintf("from-%d.wal", k))
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenLog(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.RewriteFrom(off); err != nil {
			t.Fatalf("boundary %d: RewriteFrom(%d): %v", k, off, err)
		}
		if got, want := l.Size(), LogHeaderSize+offsets[len(offsets)-1]-off; got != want {
			t.Fatalf("boundary %d: size after rewrite %d, want %d", k, got, want)
		}
		if err := l.Append([]byte("after")); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		l.Close()
		got := logRecords(t, path)
		wantRecs := append(append([][]byte(nil), want[k:]...), []byte("after"))
		if len(got) != len(wantRecs) {
			t.Fatalf("boundary %d: replayed %d records, want %d", k, len(got), len(wantRecs))
		}
		for i := range wantRecs {
			if !bytes.Equal(got[i], wantRecs[i]) {
				t.Fatalf("boundary %d: record %d = %q, want %q", k, i, got[i], wantRecs[i])
			}
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("boundary %d: temp file left behind (%v)", k, err)
		}
	}

	path := filepath.Join(dir, "range.wal")
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err = OpenLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{0, LogHeaderSize - 1, l.Size() + 1} {
		if err := l.RewriteFrom(off); err == nil {
			t.Fatalf("RewriteFrom(%d) outside [%d, %d] accepted", off, LogHeaderSize, l.Size())
		}
	}
	l.Close()
	if got := logRecords(t, path); len(got) != len(want) {
		t.Fatalf("refused rewrites changed the log: %d records, want %d", len(got), len(want))
	}
}

// TestLogRejectsForeignFile ensures OpenLog refuses a file that is not a
// record log instead of silently truncating it.
func TestLogRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-log")
	if err := os.WriteFile(path, []byte("definitely not a WAL header"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(path, nil); err == nil {
		t.Fatal("OpenLog accepted a foreign file")
	}
}

// TestLogImplausibleLength covers the corrupt-length guard directly: a
// record whose length field decodes to an absurd value stops the scan.
func TestLogImplausibleLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "txn.wal")
	l, err := OpenLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("good"))
	l.Sync()
	l.Close()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var huge [4]byte
	binary.LittleEndian.PutUint32(huge[:], 1<<30)
	if _, err := f.Seek(0, 2); err != nil {
		t.Fatal(err)
	}
	f.Write(huge[:])
	f.Write([]byte("garbage"))
	f.Close()
	got := logRecords(t, path)
	if len(got) != 1 || string(got[0]) != "good" {
		t.Fatalf("replay = %q, want just [good]", got)
	}
}
