package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Journal is the crash-safe append-only job log. Every admitted job
// writes a "submitted" entry before the client sees its 202, and every
// terminal transition writes a "terminal" entry; both are fsynced, so
// after a crash (kill -9 included) the journal names every job the
// daemon ever acknowledged and carries the full Outcome of every job
// that finished. Recovery (see Scheduler) replays terminal entries so
// completed and partial results survive a restart, and closes out
// submitted-but-unterminated jobs as failed — an admitted job reaches a
// terminal state even across a crash.
//
// The format is JSONL. A crash can tear the final line; OpenJournal
// tolerates that by truncating the torn tail (every complete entry
// before it survives) so the journal is well-formed again before
// anything is appended. A crash that cuts only the final newline
// leaves a complete entry, which OpenJournal keeps and terminates so
// the next append starts a line of its own.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// JournalEntry is one journal line.
type JournalEntry struct {
	T  string `json:"t"` // "submitted" | "terminal"
	ID string `json:"id"`

	// submitted entries:
	Req *Request `json:"req,omitempty"`

	// terminal entries:
	State  State    `json:"state,omitempty"`
	Result *Outcome `json:"result,omitempty"`
	Error  string   `json:"error,omitempty"`
}

// OpenJournal opens (creating if needed) the journal at path and
// returns the entries already on disk, oldest first. A torn final line
// left by a crash is truncated away, and a complete final entry whose
// newline the crash cut off gets it back, before the journal accepts
// new appends.
func OpenJournal(path string) (*Journal, []JournalEntry, error) {
	entries, validLen, torn, err := readJournal(path)
	if err != nil {
		return nil, nil, err
	}
	if torn {
		if err := os.Truncate(path, validLen); err != nil {
			return nil, nil, fmt.Errorf("repairing journal %s: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if err := terminateLastLine(f); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("repairing journal %s: %w", path, err)
	}
	return &Journal{f: f, path: path}, entries, nil
}

// terminateLastLine durably appends a newline when the file's last
// byte is not one. Without it the next Append would glue its entry
// onto the final line, and the following replay would reject the
// journal as corrupt.
func terminateLastLine(f *os.File) error {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return err
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, st.Size()-1); err != nil {
		return err
	}
	if last[0] == '\n' {
		return nil
	}
	if _, err := f.Write([]byte{'\n'}); err != nil {
		return err
	}
	return f.Sync()
}

// readJournal parses the existing journal. validLen is the byte length
// of the well-formed prefix; torn reports a final line the crash cut
// short (an unparsable line anywhere else is corruption and errors).
func readJournal(path string) (entries []JournalEntry, validLen int64, torn bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64*1024)
	for {
		line, rerr := r.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var e JournalEntry
			if jerr := json.Unmarshal(bytes.TrimSpace(line), &e); jerr != nil {
				if rerr == nil && !atEOF(r) {
					return nil, 0, false, fmt.Errorf("journal %s: unparsable entry %d: %w", path, len(entries)+1, jerr)
				}
				return entries, validLen, true, nil
			}
			entries = append(entries, e)
		}
		if rerr != nil {
			if rerr == io.EOF {
				return entries, validLen + int64(len(line)), false, nil
			}
			return nil, 0, false, rerr
		}
		validLen += int64(len(line))
	}
}

// atEOF reports whether the reader has no further bytes.
func atEOF(r *bufio.Reader) bool {
	_, err := r.Peek(1)
	return err == io.EOF
}

// Append durably writes one entry: the write and the fsync complete
// before Append returns.
func (j *Journal) Append(e JournalEntry) error {
	if j == nil {
		return nil
	}
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal sync: %w", err)
	}
	return nil
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
