package gcbfs

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The CI workflows are YAML, and a mapping that repeats a key is invalid:
// GitHub Actions rejects the file, and laxer parsers keep only the last
// value, so a step written with two run: keys silently drops one command.
// yamlDuplicateKeys is a small stdlib-only scan of block mappings — enough
// for workflow files, which use no anchors, flow mappings or multi-line
// keys.

// yamlDuplicateKeys reports every key that repeats within one block mapping.
func yamlDuplicateKeys(src string) []string {
	type mapping struct {
		indent int
		keys   map[string]int // key → line it first appeared on
	}
	var (
		stack       []mapping
		dups        []string
		scalarUntil = -1   // indent of the key that opened a block scalar
		openValue   = true // the last key had no inline value
	)
	for i, line := range strings.Split(src, "\n") {
		body := strings.TrimLeft(line, " ")
		indent := len(line) - len(body)
		if body == "" || strings.HasPrefix(body, "#") {
			continue
		}
		if scalarUntil >= 0 {
			if indent > scalarUntil {
				continue // block scalar content
			}
			scalarUntil = -1
		}
		// A sequence item starts a fresh mapping at its content's column.
		item := false
		for strings.HasPrefix(body, "- ") {
			body = strings.TrimLeft(body[2:], " ")
			indent = len(line) - len(body)
			item = true
		}
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if top.indent < indent || (top.indent == indent && !item) {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 && stack[len(stack)-1].indent < indent && !item && !openValue {
			continue // continuation of a multi-line plain scalar
		}
		key, value, ok := yamlKey(body)
		if !ok {
			continue
		}
		if len(stack) == 0 || stack[len(stack)-1].indent < indent {
			stack = append(stack, mapping{indent: indent, keys: map[string]int{}})
		}
		m := stack[len(stack)-1]
		if first, dup := m.keys[key]; dup {
			dups = append(dups, fmt.Sprintf("line %d: key %q repeats line %d", i+1, key, first))
		} else {
			m.keys[key] = i + 1
		}
		value = strings.TrimSpace(value)
		openValue = value == "" || strings.HasPrefix(value, "#")
		if strings.HasPrefix(value, "|") || strings.HasPrefix(value, ">") {
			scalarUntil = indent
		}
	}
	return dups
}

// yamlKey splits "key: value" (or "key:") into its key and value.
func yamlKey(body string) (key, value string, ok bool) {
	key, value, ok = strings.Cut(body, ":")
	if !ok || key == "" || strings.ContainsAny(key, " \t{[") || (value != "" && value[0] != ' ') {
		return "", "", false
	}
	return strings.Trim(key, `"'`), value, true
}

func TestWorkflowsHaveNoDuplicateKeys(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(".github", "workflows", "*.yml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no workflow files found")
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range yamlDuplicateKeys(string(src)) {
			t.Errorf("%s: %s", f, d)
		}
	}
}

func TestYAMLDuplicateKeysScan(t *testing.T) {
	const src = `jobs:
  test:
    steps:
      - name: one
        # a comment: not a key
        run: go test ./...
      - name: two
        run: |
          echo run: inside a block scalar
          run: still inside
        env:
          run: nested, not a repeat
      - name: three
        run: go run ./cmd/a
          -flag continued: plain scalar
        run: go run ./cmd/b
  test2:
    steps:
    - name: one
      run: x
`
	got := yamlDuplicateKeys(src)
	if len(got) != 1 || !strings.HasPrefix(got[0], "line 16: key \"run\" repeats line 14") {
		t.Fatalf("duplicates = %q, want exactly the repeated run: of step three", got)
	}
}
