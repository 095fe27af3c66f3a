package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const testDesign = `# DESIGN

## 1. The paper
## 2. Rounding
### Memory model
`

const testRoadmap = `# ROADMAP

## Open items

2. **Oracle.**
   1. a nested step is not an item
3. **Benchmark.**
9. **Documents.** *(Done.)*

### Parked

7. not open
`

// TestParseRefs runs the reference parser over each form a document or a
// comment cites DESIGN.md and ROADMAP.md in, and resolves what it found
// against testDesign and testRoadmap.
func TestParseRefs(t *testing.T) {
	ix := newDocIndex(testDesign, testRoadmap)
	cases := []struct {
		name, text string
		want       []docRef
		resolves   []bool
	}{
		{"section", "see DESIGN §2.", []docRef{{line: 1, num: 2}}, []bool{true}},
		{"section of DESIGN.md", "(DESIGN.md §1)", []docRef{{line: 1, num: 1}}, []bool{true}},
		{"two sections", "DESIGN §1/§2", []docRef{{line: 1, num: 1}, {line: 1, num: 2}}, []bool{true, true}},
		{"missing section", "DESIGN §99", []docRef{{line: 1, num: 99}}, []bool{false}},
		{"title", `DESIGN "Rounding"`, []docRef{{line: 1, title: "Rounding"}}, []bool{true}},
		{"possessive title", `DESIGN.md's "Memory model" section`, []docRef{{line: 1, title: "Memory model"}}, []bool{true}},
		{"comma title", `DESIGN, "The paper"`, []docRef{{line: 1, title: "The paper"}}, []bool{true}},
		{"missing heading", `DESIGN "The shards meet once"`, []docRef{{line: 1, title: "The shards meet once"}}, []bool{false}},
		{"title wrapped in a Go comment", "// as DESIGN \"Memory\n// model\" says", []docRef{{line: 1, title: "Memory model"}}, []bool{true}},
		{"section on the next line", "x\n// see DESIGN\n// §2", []docRef{{line: 2, num: 2}}, []bool{true}},
		{"item", "ROADMAP item 3", []docRef{{line: 1, num: 3, item: true}}, []bool{true}},
		{"done item", "ROADMAP item 9", []docRef{{line: 1, num: 9, item: true}}, []bool{true}},
		{"retired item", "ROADMAP item 1", []docRef{{line: 1, num: 1, item: true}}, []bool{false}},
		{"parked list number", "ROADMAP item 7", []docRef{{line: 1, num: 7, item: true}}, []bool{false}},
		{"item list", "ROADMAP.md's items 2, 3 and 4", []docRef{{line: 1, num: 2, item: true}, {line: 1, num: 3, item: true}, {line: 1, num: 4, item: true}}, []bool{true, true, false}},
		{"item with a part", "ROADMAP item 3(c)", []docRef{{line: 1, num: 3, item: true}}, []bool{true}},
		{"code span quotes the syntax", "a `DESIGN §99` or `ROADMAP item 1` reference", nil, nil},
		{"paper section", "the paper's §3.4.3", nil, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := parseRefs(c.text)
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("parseRefs(%q) = %+v, want %+v", c.text, got, c.want)
			}
			for i, r := range got {
				if ix.resolves(r) != c.resolves[i] {
					t.Errorf("%v resolves = %v, want %v", r, !c.resolves[i], c.resolves[i])
				}
			}
		})
	}
}

// TestCheckRefs runs the whole check over a small tree: a broken
// reference in a .go comment, a .md file or DESIGN.md's own bare §n fails;
// one in a Go string, under bench/ or in CHANGES.md does not, nor does the
// paper's §3.4.3; and DESIGN.md over its budget fails.
func TestCheckRefs(t *testing.T) {
	root := t.TempDir()
	write := func(name, text string) {
		t.Helper()
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("DESIGN.md", testDesign+"As §2 says, not the paper's §3.4.3, and §5.\n")
	write("ROADMAP.md", testRoadmap)
	write("README.md", "See DESIGN §1 and ROADMAP item 1.\n")
	write("internal/x/x.go", "package x\n\nvar s = \"ROADMAP item 1\"\n\n// Rounding: DESIGN \"Rounding\"; see DESIGN\n// §99.\n")
	write("bench/README.md", "ROADMAP item 1, DESIGN §99\n")
	write("CHANGES.md", "DESIGN §16 and ROADMAP item 4, as they stood.\n")

	bad, err := checkRefs(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"DESIGN.md:6: DESIGN §5 names no DESIGN.md heading",
		"README.md:1: ROADMAP item 1 names no open ROADMAP.md item",
		"internal/x/x.go:5: DESIGN §99 names no DESIGN.md heading",
	}
	if !reflect.DeepEqual(bad, want) {
		t.Fatalf("checkRefs:\n%s\nwant:\n%s", strings.Join(bad, "\n"), strings.Join(want, "\n"))
	}

	write("DESIGN.md", testDesign+strings.Repeat("line\n", designBudget))
	write("README.md", "")
	write("internal/x/x.go", "package x\n")
	bad, err = checkRefs(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || !strings.HasPrefix(bad[0], "DESIGN.md: 1005 lines, budget 1000") {
		t.Fatalf("checkRefs over budget = %q", bad)
	}
}
