package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunHoldsEveryFigureToItsRecord: a package's non-test lines and
// DESIGN.md's bytes pass at or under their record, and fail over it or
// without one; test files, hidden directories and testdata count nothing.
func TestRunHoldsEveryFigureToItsRecord(t *testing.T) {
	root := t.TempDir()
	for name, body := range map[string]string{
		"DESIGN.md":        "12345",
		"a.go":             "package a\n\nfunc A() {}\n",
		"a_test.go":        "package a\n\n\n\n",
		"p/q/b.go":         "package q\n",
		".hidden/c.go":     "package c\n",
		"p/testdata/d.go":  "package d\n",
		"p/q/notes.txt":    "\n\n\n",
		"p/q/b_extra.go":   "package q\n\n",
		"p/empty/README":   "",
		"p/q/zz_test.go":   "package q\n",
		"p/q/other.go.txt": "\n",
	} {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for record, wantErr := range map[string]string{
		`{".": 3, "p/q": 3, "DESIGN.md": 5}`:  "",
		`{".": 9, "p/q": 9, "DESIGN.md": 50}`: "",
		`{".": 2, "p/q": 3, "DESIGN.md": 5}`:  "over the record in SIZE.json: .",
		`{".": 3, "DESIGN.md": 4}`:            "over the record in SIZE.json: DESIGN.md, p/q",
	} {
		if err := os.WriteFile(filepath.Join(root, "SIZE.json"), []byte(record), 0o644); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		got := ""
		if err := run(root, &out); err != nil {
			got = err.Error()
		}
		if got != wantErr {
			t.Errorf("record %s: error %q, want %q\n%s", record, got, wantErr, out.String())
		}
		current, err := os.ReadFile(filepath.Join(root, "size-current.json"))
		if err != nil || !strings.Contains(string(current), `"p/q": 3`) {
			t.Fatalf("size-current.json = %s, %v", current, err)
		}
	}
}
