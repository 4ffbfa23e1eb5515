package datatamer

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// yamlKey matches a block-mapping key at the start of a (dash-stripped)
// line: a quoted key or a plain one, followed by a colon and a space or
// the end of the line.
var yamlKey = regexp.MustCompile(`^("[^"]*"|'[^']*'|[^\s#"'][^:#]*?):(\s|$)`)

// duplicateKeys reports every key that repeats within one block mapping
// of a YAML document. GitHub rejects a workflow with such a key, so the
// whole file silently stops running. It understands the block subset
// workflows use — nested mappings, "- " sequence items, comments, and
// literal or folded block scalars, whose bodies are skipped — with the
// standard library only.
func duplicateKeys(src string) []string {
	type mapping struct {
		indent int
		keys   map[string]int // key -> line it first appeared on
	}
	var stack []mapping
	var dups []string
	blockIndent := -1 // indent of the key that opened a block scalar
	for n, line := range strings.Split(src, "\n") {
		text := strings.TrimLeft(line, " ")
		indent := len(line) - len(text)
		if blockIndent >= 0 {
			if strings.TrimSpace(line) == "" || indent > blockIndent {
				continue
			}
			blockIndent = -1
		}
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		item := strings.HasPrefix(text, "- ")
		if item {
			rest := strings.TrimLeft(text[2:], " ")
			indent += len(text) - len(rest)
			text = rest
		}
		m := yamlKey.FindStringSubmatch(text)
		if m == nil {
			continue
		}
		// A sequence item opens a fresh mapping even at the same indent.
		for len(stack) > 0 && (stack[len(stack)-1].indent > indent || item && stack[len(stack)-1].indent == indent) {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 || stack[len(stack)-1].indent < indent {
			stack = append(stack, mapping{indent: indent, keys: map[string]int{}})
		}
		top := stack[len(stack)-1]
		key := m[1]
		if first, ok := top.keys[key]; ok {
			dups = append(dups, fmt.Sprintf("line %d: key %q repeats line %d", n+1, key, first))
		} else {
			top.keys[key] = n + 1
		}
		value := strings.TrimSpace(text[len(m[0]):])
		if strings.HasPrefix(value, "|") || strings.HasPrefix(value, ">") {
			blockIndent = indent
		}
	}
	return dups
}

// TestWorkflowsHaveNoDuplicateKeys guards CI itself: a step mapping with
// two run: keys made GitHub reject ci.yml, and no job ran at all.
func TestWorkflowsHaveNoDuplicateKeys(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(".github", "workflows", "*.y*ml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no workflow files found")
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range duplicateKeys(string(data)) {
			t.Errorf("%s: %s", path, d)
		}
	}
}

func TestDuplicateKeyDetector(t *testing.T) {
	cases := []struct {
		name string
		yaml string
		dups int
	}{
		{"two run keys in one step", `
steps:
  - name: chaos smoke
    # comment
    run: go test ./a
    # a lost "- name:" line
    run: go test ./b
  - name: next
    run: x
`, 1},
		{"same keys in sibling steps", `
steps:
  - name: a
    run: x
  - name: b
    run: y
`, 0},
		{"nested mapping reuses a key", `
steps:
  - name: a
    with:
      name: artifact
      path: p
    run: x
`, 0},
		{"block scalar body is not parsed", `
steps:
  - name: a
    run: |
      run: not a key
      name: nor this
    env:
      A: b
`, 0},
		{"duplicate top-level key", `
on:
  push:
jobs: {}
on: x
`, 1},
		{"duplicate nested key after a block scalar", `
jobs:
  test:
    steps:
      - run: >
          folded
        name: a
        name: b
`, 1},
	}
	for _, c := range cases {
		if got := duplicateKeys(c.yaml); len(got) != c.dups {
			t.Errorf("%s: got %d duplicates %v, want %d", c.name, len(got), got, c.dups)
		}
	}
}
