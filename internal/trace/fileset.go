package trace

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"weakrace/internal/memmodel"
)

// The paper's instrumentation "generate[s] trace files" — plural: each
// processor writes its own stream, and the post-mortem analyzer gathers
// them. A file set mirrors that layout on disk:
//
//	dir/manifest.wrm     header + per-processor file names
//	dir/cpu-0.wrt        processor 0's event stream (binary)
//	dir/cpu-1.wrt        ...
//
// Per-processor files use the single-trace binary codec with NumCPUs set
// to the full processor count and the other streams empty, so each file
// is independently decodable and pairing references stay meaningful.

const manifestName = "manifest.wrm"

// WriteFileSet writes the trace as a manifest plus one binary file per
// processor under dir (created if needed).
func WriteFileSet(dir string, t *Trace) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("trace: fileset: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: fileset: %w", err)
	}
	mf, err := os.Create(filepath.Join(dir, manifestName))
	if err != nil {
		return fmt.Errorf("trace: fileset: %w", err)
	}
	w := bufio.NewWriter(mf)
	fmt.Fprintf(w, "weakrace-manifest 1\n")
	fmt.Fprintf(w, "program %q\n", t.ProgramName)
	fmt.Fprintf(w, "model %s\n", t.Model)
	fmt.Fprintf(w, "seed %d\n", t.Seed)
	fmt.Fprintf(w, "cpus %d\n", t.NumCPUs)
	fmt.Fprintf(w, "locations %d\n", t.NumLocations)
	for c := 0; c < t.NumCPUs; c++ {
		fmt.Fprintf(w, "file %d cpu-%d.wrt\n", c, c)
	}
	if err := w.Flush(); err != nil {
		mf.Close()
		return fmt.Errorf("trace: fileset: %w", err)
	}
	if err := mf.Close(); err != nil {
		return fmt.Errorf("trace: fileset: %w", err)
	}

	for c := 0; c < t.NumCPUs; c++ {
		part := &Trace{
			ProgramName:  t.ProgramName,
			Model:        t.Model,
			Seed:         t.Seed,
			NumCPUs:      t.NumCPUs,
			NumLocations: t.NumLocations,
			PerCPU:       make([][]*Event, t.NumCPUs),
		}
		part.PerCPU[c] = t.PerCPU[c]
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("cpu-%d.wrt", c)))
		if err != nil {
			return fmt.Errorf("trace: fileset: %w", err)
		}
		if err := encodeUnvalidated(f, part); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("trace: fileset: %w", err)
		}
	}
	return nil
}

// encodeUnvalidated is Encode; per-processor parts intentionally skip
// whole-trace validation (their pairing targets live in other files).
func encodeUnvalidated(f *os.File, part *Trace) error {
	return Encode(f, part)
}

// ReadFileSet reassembles a trace from a directory written by
// WriteFileSet and validates the merged result.
func ReadFileSet(dir string) (*Trace, error) {
	mf, err := os.Open(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("trace: fileset: %w", err)
	}
	defer mf.Close()

	t := &Trace{}
	files := map[int]string{}
	sc := bufio.NewScanner(mf)
	line := 0
	fail := func(format string, args ...any) error {
		return fmt.Errorf("trace: fileset: manifest line %d: %s", line, fmt.Sprintf(format, args...))
	}
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if line == 1 {
			if text != "weakrace-manifest 1" {
				return nil, fail("bad manifest header %q", text)
			}
			continue
		}
		key, rest, _ := strings.Cut(text, " ")
		switch key {
		case "program":
			name, err := strconv.Unquote(rest)
			if err != nil {
				return nil, fail("bad program name: %v", err)
			}
			t.ProgramName = name
		case "model":
			m, err := memmodel.Parse(rest)
			if err != nil {
				return nil, fail("%v", err)
			}
			t.Model = m
		case "seed":
			s, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return nil, fail("bad seed: %v", err)
			}
			t.Seed = s
		case "cpus":
			n, err := strconv.Atoi(rest)
			if err != nil || n < 0 || n > 1<<16 {
				return nil, fail("bad cpu count %q", rest)
			}
			t.NumCPUs = n
		case "locations":
			n, err := strconv.Atoi(rest)
			if err != nil || n < 0 || n > 1<<20 {
				return nil, fail("bad location count %q", rest)
			}
			t.NumLocations = n
		case "file":
			idxStr, name, found := strings.Cut(rest, " ")
			if !found {
				return nil, fail("bad file entry %q", rest)
			}
			idx, err := strconv.Atoi(idxStr)
			if err != nil || idx < 0 {
				return nil, fail("bad file index %q", idxStr)
			}
			if strings.Contains(name, "/") || strings.Contains(name, "..") {
				return nil, fail("file name %q escapes the directory", name)
			}
			files[idx] = name
		default:
			return nil, fail("unknown directive %q", key)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: fileset: %w", err)
	}
	if len(files) != t.NumCPUs {
		return nil, fmt.Errorf("trace: fileset: manifest lists %d files for %d processors", len(files), t.NumCPUs)
	}

	t.PerCPU = make([][]*Event, t.NumCPUs)
	for c := 0; c < t.NumCPUs; c++ {
		name, ok := files[c]
		if !ok {
			return nil, fmt.Errorf("trace: fileset: no file for processor %d", c)
		}
		part, err := readPart(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if part.NumCPUs != t.NumCPUs || part.NumLocations != t.NumLocations {
			return nil, fmt.Errorf("trace: fileset: %s header disagrees with manifest", name)
		}
		for other := 0; other < part.NumCPUs; other++ {
			if other != c && len(part.PerCPU[other]) > 0 {
				return nil, fmt.Errorf("trace: fileset: %s carries events for processor %d", name, other)
			}
		}
		t.PerCPU[c] = part.PerCPU[c]
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("trace: fileset: %w", &InvalidError{Err: err})
	}
	return t, nil
}

// readPart decodes one per-processor file without whole-trace validation
// (pairing references point into other processors' files).
func readPart(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: fileset: %w", err)
	}
	defer f.Close()
	part, err := decodeNoValidate(f)
	if err != nil {
		return nil, fmt.Errorf("trace: fileset: %s: %w", path, err)
	}
	return part, nil
}
