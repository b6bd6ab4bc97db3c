// Command sizeguard is the CI size ratchet: it counts the non-test Go
// lines of every package under the working directory and the bytes of
// DESIGN.md, prints each figure beside its record in SIZE.json, writes
// the figures to size-current.json, and fails (exit 1) when one exceeds
// its record or has none. A change that shrinks the code, or grows it on
// purpose, commits size-current.json as SIZE.json.
//
//	go run ./cmd/sizeguard
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

func main() {
	if err := run(".", os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sizeguard:", err)
		os.Exit(1)
	}
}

// measure returns the figures of the tree under root: each package
// directory's non-test Go lines, under its path from root, and
// DESIGN.md's bytes. Hidden directories and testdata are skipped.
func measure(root string) (map[string]int, error) {
	sizes := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch name := d.Name(); {
		case err != nil:
			return err
		case d.IsDir() && path != root && (strings.HasPrefix(name, ".") || name == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		sizes[filepath.ToSlash(dir)] += bytes.Count(src, []byte("\n"))
		return err
	})
	if err != nil {
		return nil, err
	}
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	sizes["DESIGN.md"] = len(design)
	return sizes, err
}

// run measures root, writes root/size-current.json, prints every figure
// beside its record in root/SIZE.json to out, and returns an error
// naming the figures over their record.
func run(root string, out io.Writer) error {
	now, err := measure(root)
	if err != nil {
		return err
	}
	current, _ := json.MarshalIndent(now, "", "  ")
	if err := os.WriteFile(filepath.Join(root, "size-current.json"), append(current, '\n'), 0o644); err != nil {
		return err
	}
	var record map[string]int
	src, err := os.ReadFile(filepath.Join(root, "SIZE.json"))
	if err == nil {
		err = json.Unmarshal(src, &record)
	}
	if err != nil {
		return fmt.Errorf("reading the record: %w", err)
	}
	var over []string
	fmt.Fprintf(out, "%-32s %8s %8s\n", "", "record", "now")
	for _, name := range slices.Sorted(maps.Keys(now)) {
		rec, ok := record[name]
		note := ""
		switch {
		case !ok || now[name] > rec:
			over = append(over, name)
			note = "  over the record"
		case now[name] < rec:
			note = "  under: commit size-current.json as SIZE.json"
		}
		fmt.Fprintf(out, "%-32s %8d %8d%s\n", name, rec, now[name], note)
	}
	if len(over) > 0 {
		return fmt.Errorf("over the record in SIZE.json: %s", strings.Join(over, ", "))
	}
	return nil
}
