package serve

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// journalEntries are the two kinds of entry a job leaves in the
// journal, with the payloads the scheduler writes.
func journalEntries(id string) []JournalEntry {
	req := quickReq()
	return []JournalEntry{
		{T: "submitted", ID: id, Req: &req},
		{T: "terminal", ID: id, State: StatePartial, Result: &Outcome{
			TimeIn: 100, TimeSI: 50, TimeSOC: 150, Rails: 2,
			Partial: true, Cause: "budget", Patterns: 200, Groups: 2, Evals: 5,
		}},
	}
}

func appendAll(t testing.TB, path string, entries []JournalEntry) {
	t.Helper()
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func replay(t testing.TB, path string) []JournalEntry {
	t.Helper()
	j, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return entries
}

// TestJournalReopenAfterLostFinalNewline is a crash that cut only the
// journal's final newline: the entry before it is complete and must
// survive, and appends after the reopen must not glue onto it — neither
// when more entries follow the glued line nor when it is the last one.
func TestJournalReopenAfterLostFinalNewline(t *testing.T) {
	for _, more := range []int{1, 2} {
		path := filepath.Join(t.TempDir(), "jobs.jsonl")
		first := journalEntries("j000001")
		appendAll(t, path, first)
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, st.Size()-1); err != nil {
			t.Fatal(err)
		}
		if got := replay(t, path); !reflect.DeepEqual(got, first) {
			t.Fatalf("more=%d: replay after the lost newline = %+v, want %+v", more, got, first)
		}
		later := journalEntries("j000002")[:more]
		appendAll(t, path, later)
		want := append(append([]JournalEntry(nil), first...), later...)
		if got := replay(t, path); !reflect.DeepEqual(got, want) {
			t.Errorf("more=%d: replay after further appends = %+v, want %+v", more, got, want)
		}
	}
}

// FuzzJournalReplay runs arbitrary bytes through the recovery path:
// OpenJournal, one Append, OpenJournal again. Nothing may panic, and a
// file that opened once must open again with every entry of the first
// replay still there, followed by the appended one.
func FuzzJournalReplay(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.jsonl")
	appendAll(f, path, append(journalEntries("j000001"), journalEntries("j000002")[0]))
	whole, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(whole)                // a clean journal
	f.Add(whole[:len(whole)-1]) // the final newline lost
	f.Add(whole[:len(whole)-9]) // the final line torn
	f.Add(append(whole[:len(whole)-1:len(whole)-1], "\r"...))
	f.Add([]byte{})
	f.Add([]byte("\n\n  \n"))
	f.Add([]byte(`{"t":"subm`))
	f.Add([]byte("garbage\n{\"t\":\"terminal\",\"id\":\"j1\"}\n"))

	extra := JournalEntry{T: "terminal", ID: "j999999", State: StateFailed, Error: "daemon crashed"}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "jobs.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, first, err := OpenJournal(path)
		if err != nil {
			return // corruption before the final line: refused, not repaired
		}
		if err := j.Append(extra); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j, second, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("a journal that opened once no longer opens: %v", err)
		}
		j.Close()
		want := append(append([]JournalEntry(nil), first...), extra)
		if !reflect.DeepEqual(second, want) {
			t.Fatalf("second replay = %+v, want the first replay plus the append %+v", second, want)
		}
	})
}
