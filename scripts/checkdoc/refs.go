package main

import (
	"bytes"
	"fmt"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// designBudget is the most lines DESIGN.md may hold: it describes the
// system as it runs, and CHANGES.md and git keep its history.
const designBudget = 1000

// A docRef is one cross-reference found in a file: a DESIGN.md section by
// number (num > 0, item false), a DESIGN.md section by title (title set),
// or a ROADMAP item (num > 0, item true).
type docRef struct {
	line  int
	num   int
	title string
	item  bool
}

func (r docRef) String() string {
	switch {
	case r.item:
		return fmt.Sprintf("ROADMAP item %d", r.num)
	case r.title != "":
		return fmt.Sprintf("DESIGN %q", r.title)
	}
	return fmt.Sprintf("DESIGN §%d", r.num)
}

var (
	// codeSpan is a one-line markdown code span. A reference inside one
	// quotes the syntax rather than citing a section.
	codeSpan = regexp.MustCompile("`[^`\n]*`")
	// commentLead is what continues a Go line comment on the next line.
	commentLead = regexp.MustCompile(`\n[ \t]*//[ \t]?`)
	// designRef is `DESIGN §n`, `DESIGN.md §n/§m`, `DESIGN "title"`,
	// `DESIGN.md's "title"` or `DESIGN, "title"`.
	designRef = regexp.MustCompile(`DESIGN(?:\.md)?(?:'s)?,?\s+(§\d+(?:\s*/\s*§\d+)*|"[^"]{1,80}")`)
	sectionNo = regexp.MustCompile(`§(\d+)`)
	// selfRef is a bare §n inside DESIGN.md itself; §3.4.3 and the like
	// are the paper's sections.
	selfRef = regexp.MustCompile(`§(\d+)(\.\d)?`)
	// itemRef is `ROADMAP item n` or `ROADMAP.md's items n, m and k`.
	itemRef = regexp.MustCompile(`ROADMAP(?:\.md)?(?:'s)?,?\s+items?\s+(\d+(?:(?:\s*,\s*|\s+and\s+|\s*,\s*and\s+)\d+)*)`)
	number  = regexp.MustCompile(`\d+`)
	// heading is a DESIGN.md section heading, "## 7. Title" or "## Title".
	heading = regexp.MustCompile(`(?m)^#{2,3}\s+(?:(\d+)\.\s+)?(.+?)\s*$`)
	// openItem is an entry of ROADMAP.md's numbered list, and nextSection
	// the heading that ends the list.
	openItem    = regexp.MustCompile(`(?m)^(\d+)\.\s`)
	nextSection = regexp.MustCompile(`\n#{2,3} `)
)

// parseRefs returns the DESIGN and ROADMAP references in text, with the
// line each starts on. A reference may wrap across lines, inside a Go
// comment too; one inside a code span is not a reference.
func parseRefs(text string) []docRef {
	text = commentLead.ReplaceAllString(text, "\n")
	text = blankCodeSpans(text)
	lineOf := func(off int) int { return 1 + strings.Count(text[:off], "\n") }
	var refs []docRef
	for _, m := range designRef.FindAllStringSubmatchIndex(text, -1) {
		arg, line := text[m[2]:m[3]], lineOf(m[0])
		if strings.HasPrefix(arg, `"`) {
			refs = append(refs, docRef{line: line, title: strings.Join(strings.Fields(strings.Trim(arg, `"`)), " ")})
			continue
		}
		for _, n := range sectionNo.FindAllStringSubmatch(arg, -1) {
			v, _ := strconv.Atoi(n[1])
			refs = append(refs, docRef{line: line, num: v})
		}
	}
	for _, m := range itemRef.FindAllStringSubmatchIndex(text, -1) {
		line := lineOf(m[0])
		for _, n := range number.FindAllString(text[m[2]:m[3]], -1) {
			v, _ := strconv.Atoi(n)
			refs = append(refs, docRef{line: line, num: v, item: true})
		}
	}
	return refs
}

// blankCodeSpans replaces every code span in text with spaces, keeping
// offsets and lines.
func blankCodeSpans(text string) string {
	return codeSpan.ReplaceAllStringFunc(text, func(s string) string { return strings.Repeat(" ", len(s)) })
}

// selfRefs returns the bare §n references in DESIGN.md's own text.
func selfRefs(text string) []docRef {
	text = blankCodeSpans(text)
	var refs []docRef
	for _, m := range selfRef.FindAllStringSubmatchIndex(text, -1) {
		if m[4] >= 0 {
			continue
		}
		v, _ := strconv.Atoi(text[m[2]:m[3]])
		refs = append(refs, docRef{line: 1 + strings.Count(text[:m[0]], "\n"), num: v})
	}
	return refs
}

// goComments returns src with everything but its comments blanked, line
// breaks kept: in a Go file only a comment cites a document.
func goComments(src []byte) string {
	out := make([]byte, len(src))
	for i, c := range src {
		out[i] = ' '
		if c == '\n' {
			out[i] = c
		}
	}
	var s scanner.Scanner
	fset := token.NewFileSet()
	s.Init(fset.AddFile("", fset.Base(), len(src)), src, nil, scanner.ScanComments)
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			return string(out)
		}
		if tok == token.COMMENT {
			copy(out[fset.Position(pos).Offset:], lit)
		}
	}
}

// docIndex is what references may name: DESIGN.md's section numbers and
// titles and ROADMAP.md's item numbers.
type docIndex struct {
	sections map[int]bool
	titles   map[string]bool
	items    map[int]bool
}

// newDocIndex reads the headings of design and the numbered items of
// roadmap's "## Open items" section.
func newDocIndex(design, roadmap string) docIndex {
	ix := docIndex{sections: map[int]bool{}, titles: map[string]bool{}, items: map[int]bool{}}
	for _, m := range heading.FindAllStringSubmatch(design, -1) {
		if m[1] != "" {
			v, _ := strconv.Atoi(m[1])
			ix.sections[v] = true
		}
		ix.titles[m[2]] = true
	}
	if i := strings.Index(roadmap, "\n## Open items"); i >= 0 {
		open := roadmap[i+1:]
		if j := nextSection.FindStringIndex(open[2:]); j != nil {
			open = open[:j[0]+2]
		}
		for _, m := range openItem.FindAllStringSubmatch(open, -1) {
			v, _ := strconv.Atoi(m[1])
			ix.items[v] = true
		}
	}
	return ix
}

// resolves reports whether r names a DESIGN.md heading or an open item.
func (ix docIndex) resolves(r docRef) bool {
	switch {
	case r.item:
		return ix.items[r.num]
	case r.title != "":
		return ix.titles[r.title]
	}
	return ix.sections[r.num]
}

// checkRefs holds the documents under root to their budget: DESIGN.md at
// most designBudget lines, and every DESIGN and ROADMAP reference in a .go
// or .md file naming a DESIGN.md heading or an open ROADMAP.md item. It
// skips bench/, which only a benchmark change may edit, and CHANGES.md,
// whose entries cite the documents as they stood. It returns one
// diagnostic per failure.
func checkRefs(root string) ([]string, error) {
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		return nil, err
	}
	roadmap, err := os.ReadFile(filepath.Join(root, "ROADMAP.md"))
	if err != nil {
		return nil, err
	}
	var bad []string
	if n := bytes.Count(design, []byte("\n")); n > designBudget {
		bad = append(bad, fmt.Sprintf("DESIGN.md: %d lines, budget %d: describe the system as it runs and leave its history to CHANGES.md", n, designBudget))
	}
	ix := newDocIndex(string(design), string(roadmap))
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if path != root && (rel == "bench" || strings.HasPrefix(d.Name(), ".") && d.Name() != ".claude") {
				return filepath.SkipDir
			}
			return nil
		}
		if rel == "CHANGES.md" || !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, ".md") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		text := string(b)
		if strings.HasSuffix(path, ".go") {
			text = goComments(b)
		}
		refs := parseRefs(text)
		if rel == "DESIGN.md" {
			refs = append(refs, selfRefs(string(b))...)
		}
		for _, r := range refs {
			if !ix.resolves(r) {
				what := "DESIGN.md heading"
				if r.item {
					what = "open ROADMAP.md item"
				}
				bad = append(bad, fmt.Sprintf("%s:%d: %v names no %s", rel, r.line, r, what))
			}
		}
		return nil
	})
	return bad, err
}
