package cluster

import (
	"bytes"
	"context"
	"errors"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// cuttingLeader serves one segment file. While cut is set, a response
// declares the full remaining length but sends only the first half of
// it, so the client's read fails mid-body. A Range request is answered
// with 206 and the requested suffix. ranges records every request's
// Range header in order.
type cuttingLeader struct {
	name string
	data []byte

	mu     sync.Mutex
	cut    bool
	ranges []string
}

func (l *cuttingLeader) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/internal/segments/"+l.name {
		http.NotFound(w, r)
		return
	}
	l.mu.Lock()
	cut := l.cut
	l.ranges = append(l.ranges, r.Header.Get("Range"))
	l.mu.Unlock()

	body, status := l.data, http.StatusOK
	if rg := r.Header.Get("Range"); rg != "" {
		from, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(rg, "bytes="), "-"))
		if err != nil || from > len(l.data) {
			http.Error(w, "bad range", http.StatusRequestedRangeNotSatisfiable)
			return
		}
		body, status = l.data[from:], http.StatusPartialContent
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if cut {
		w.Write(body[:len(body)/2])
		return // short of Content-Length: the server drops the connection
	}
	w.Write(body)
}

func (l *cuttingLeader) setCut(cut bool) {
	l.mu.Lock()
	l.cut = cut
	l.mu.Unlock()
}

func (l *cuttingLeader) rangeLog() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.ranges...)
}

func newCuttingLeader(t *testing.T) (*cuttingLeader, *httptest.Server) {
	t.Helper()
	l := &cuttingLeader{
		name: "seg-0001.ncseg",
		data: bytes.Repeat([]byte("segment bytes that ship in two halves|"), 200),
		cut:  true,
	}
	srv := httptest.NewServer(l)
	t.Cleanup(srv.Close)
	return l, srv
}

// TestFetchResumesCutDownload drives the .part resume path: a body cut
// mid-stream leaves the bytes that arrived in name.part, and the retry
// asks for the rest with Range, joins the halves and passes the
// checksum.
func TestFetchResumesCutDownload(t *testing.T) {
	ctx := context.Background()
	l, srv := newCuttingLeader(t)
	dir := t.TempDir()
	f := &Fetcher{BaseURL: srv.URL, Dir: dir}
	want := crc32.ChecksumIEEE(l.data)
	path := filepath.Join(dir, l.name)

	if err := f.fetchFile(ctx, l.name, want); err == nil {
		t.Fatal("cut download reported success")
	}
	part, err := os.ReadFile(path + ".part")
	if err != nil {
		t.Fatalf("cut download left no partial file: %v", err)
	}
	if len(part) == 0 || !bytes.Equal(part, l.data[:len(part)]) {
		t.Fatalf("partial file holds %d bytes that are not a prefix of the segment", len(part))
	}

	l.setCut(false)
	if err := f.fetchFile(ctx, l.name, want); err != nil {
		t.Fatalf("resumed fetch: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, l.data) {
		t.Fatalf("resumed file differs from the segment (err %v)", err)
	}
	if _, err := os.Stat(path + ".part"); !os.IsNotExist(err) {
		t.Fatalf("partial file survived a completed fetch: %v", err)
	}
	ranges := l.rangeLog()
	if len(ranges) != 2 || ranges[0] != "" || ranges[1] != "bytes="+strconv.Itoa(len(part))+"-" {
		t.Fatalf("Range headers = %q, want none then a resume from %d", ranges, len(part))
	}
	if c := f.Counters(); c.SegmentsFetched != 1 {
		t.Fatalf("segments fetched = %d, want 1", c.SegmentsFetched)
	}
}

// TestFetchPartWriteFailure pins what happens when the bytes of a cut
// download cannot be kept: the error carries both the read failure and
// the write failure, no partial file is left behind, and the next
// attempt fetches the whole file from the start.
func TestFetchPartWriteFailure(t *testing.T) {
	ctx := context.Background()
	l, srv := newCuttingLeader(t)
	dir := t.TempDir()
	f := &Fetcher{BaseURL: srv.URL, Dir: dir}
	want := crc32.ChecksumIEEE(l.data)
	path := filepath.Join(dir, l.name)

	// A directory in the partial file's place makes its write fail.
	if err := os.Mkdir(path+".part", 0o755); err != nil {
		t.Fatal(err)
	}
	err := f.fetchFile(ctx, l.name, want)
	if err == nil {
		t.Fatal("cut download reported success")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("error %q does not carry the read failure", err)
	}
	var perr *os.PathError
	if !errors.As(err, &perr) || perr.Path != path+".part" {
		t.Errorf("error %q does not carry the partial-file write failure", err)
	}
	if _, err := os.Stat(path + ".part"); !os.IsNotExist(err) {
		t.Fatalf("unwritable partial file was not removed: %v", err)
	}

	l.setCut(false)
	if err := f.fetchFile(ctx, l.name, want); err != nil {
		t.Fatalf("fetch after the failed write: %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, l.data) {
		t.Fatalf("fetched file differs from the segment (err %v)", err)
	}
	if ranges := l.rangeLog(); len(ranges) != 2 || ranges[0] != "" || ranges[1] != "" {
		t.Fatalf("Range headers = %q, want two whole-file requests", ranges)
	}
}
