package main

import (
	"math"
	"os"
	"strings"
	"testing"

	"crowddb/internal/space"
	"crowddb/internal/vecmath"
)

var osReadFile = os.ReadFile

func TestReadRatingsCSV(t *testing.T) {
	in := `item_id,user_id,score
0,0,4
1,0,2.5
0,1,5
2,1,1
`
	data, err := ReadRatingsCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if data.Items != 3 || data.Users != 2 || len(data.Ratings) != 4 {
		t.Fatalf("shape = %d items, %d users, %d ratings", data.Items, data.Users, len(data.Ratings))
	}
	if data.Ratings[1].Score != 2.5 {
		t.Fatalf("score = %v", data.Ratings[1].Score)
	}
	if err := data.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadRatingsCSVWithoutHeader(t *testing.T) {
	data, err := ReadRatingsCSV(strings.NewReader("0,0,3\n1,1,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Ratings) != 2 {
		t.Fatalf("ratings = %d", len(data.Ratings))
	}
}

func TestReadRatingsCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"header only":       "item,user,score\n",
		"mid-file garbage":  "0,0,3\nx,y,z\n",
		"negative id":       "-1,0,3\n",
		"wrong field count": "0,0\n",
	}
	for name, in := range cases {
		if _, err := ReadRatingsCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestWriteSpaceCSVRoundTrip(t *testing.T) {
	coords := vecmath.NewMatrix(3, 2)
	copy(coords.Data, []float64{1, 2, 3.5, -4, 0, 0.25})
	sp := space.NewSpace(coords)
	var sb strings.Builder
	if err := WriteSpaceCSV(&sb, sp); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if lines[1] != "1,3.5,-4" {
		t.Fatalf("line 1 = %q", lines[1])
	}
}

func TestRunDemoEndToEnd(t *testing.T) {
	tmp := t.TempDir() + "/space.csv"
	if err := run("", tmp, 4, 0.02, 2, 1, true); err != nil {
		t.Fatal(err)
	}
	// The output must be loadable as CSV with 1+4 fields per line.
	data, err := readFile(t, tmp)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(data), "\n")
	if len(lines) != 300 { // ScaleTiny items
		t.Fatalf("lines = %d", len(lines))
	}
	if got := len(strings.Split(lines[0], ",")); got != 5 {
		t.Fatalf("fields = %d", got)
	}
}

func TestRunRequiresInput(t *testing.T) {
	if err := run("", "", 4, 0.02, 2, 1, false); err == nil {
		t.Fatal("missing -in and -demo must fail")
	}
	if err := run("/does/not/exist.csv", "", 4, 0.02, 2, 1, false); err == nil {
		t.Fatal("unreadable input must fail")
	}
}

func readFile(t *testing.T, path string) (string, error) {
	t.Helper()
	b, err := osReadFile(path)
	return string(b), err
}

// A NaN λ or a NaN score in the CSV (strconv.ParseFloat accepts "NaN")
// must fail the run instead of writing an all-NaN space.
func TestRunRejectsNonFiniteInput(t *testing.T) {
	dir := t.TempDir()
	if err := run("", dir+"/space.csv", 4, math.NaN(), 2, 1, true); err == nil {
		t.Fatal("-lambda NaN must fail")
	}
	in := dir + "/ratings.csv"
	if err := os.WriteFile(in, []byte("item_id,user_id,score\n0,0,4\n1,0,NaN\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(in, dir+"/space2.csv", 4, 0.02, 2, 1, false)
	if err == nil || !strings.Contains(err.Error(), "rating 1 ") {
		t.Fatalf("a NaN score must fail naming its rating, got %v", err)
	}
}
