package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"

	"weakrace/internal/memmodel"
	"weakrace/internal/program"
)

// Text trace format: a line-oriented, human-editable alternative to the
// binary codec, round-trippable through DecodeText. Example:
//
//	weakrace-trace 1
//	program "figure-2"
//	model WO
//	seed 674
//	cpus 3
//	locations 12
//	cpu 0
//	comp reads= writes=0@0,1@1
//	sync release loc=2 seq=0 pc=2
//	cpu 1
//	sync acquire loc=2 seq=1 pc=0 paired=0:1/release
//	end
//
// Access sets list loc@pc entries (the PC provenance); pairing references
// are cpu:index/role.

const textMagic = "weakrace-trace 1"

// EncodeText writes the trace in text form.
func EncodeText(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s\n", textMagic)
	fmt.Fprintf(bw, "program %q\n", t.ProgramName)
	fmt.Fprintf(bw, "model %s\n", t.Model)
	fmt.Fprintf(bw, "seed %d\n", t.Seed)
	fmt.Fprintf(bw, "cpus %d\n", t.NumCPUs)
	fmt.Fprintf(bw, "locations %d\n", t.NumLocations)
	var line []byte
	for c := 0; c < t.NumCPUs; c++ {
		fmt.Fprintf(bw, "cpu %d\n", c)
		from, to := t.Stream(c)
		for i := from; i < to; i++ {
			ev := &t.events[i]
			line = line[:0]
			if ev.kind == Comp {
				line = append(line, "comp reads="...)
				line = appendAccessList(line, t.Reads(i), t.ReadPCs(i))
				line = append(line, " writes="...)
				line = appendAccessList(line, t.Writes(i), t.WritePCs(i))
			} else {
				line = fmt.Appendf(line, "sync %s loc=%d seq=%d pc=%d", ev.role, ev.at, ev.seq, ev.pc)
				if ev.observed >= 0 {
					ref := t.Ref(int(ev.observed))
					line = fmt.Appendf(line, " paired=%d:%d/%s", ref.CPU, ref.Index, ev.observedRole)
				}
			}
			bw.Write(append(line, '\n'))
		}
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

// appendAccessList appends a set's loc@pc list.
func appendAccessList(b []byte, set Locs, pcs []int) []byte {
	for k, loc := range set {
		if k > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(loc), 10)
		b = append(b, '@')
		b = strconv.AppendInt(b, int64(pcs[k]), 10)
	}
	return b
}

// textParser tracks position for error messages and holds the open
// computation event's accesses.
type textParser struct {
	sc            *bufio.Scanner
	line          int
	reads, writes []LocPC
}

// next returns the next line that is neither blank nor a comment,
// trimmed, aliasing the scanner's buffer.
func (p *textParser) next() ([]byte, bool) {
	for p.sc.Scan() {
		p.line++
		line := bytes.TrimSpace(p.sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		return line, true
	}
	return nil, false
}

func (p *textParser) errf(format string, args ...any) error {
	return fmt.Errorf("trace: text decode: line %d: %w", p.line, fmt.Errorf(format, args...))
}

// DecodeText parses a text-form trace and validates it. Lines are
// parsed in place from the scanner's buffer straight into the builder's
// columns: decoding allocates per trace, not per line.
func DecodeText(r io.Reader) (*Trace, error) {
	p := &textParser{sc: bufio.NewScanner(r)}
	p.sc.Buffer(make([]byte, 1<<16), 1<<24)

	line, ok := p.next()
	if !ok || string(line) != textMagic {
		return nil, p.errf("missing header %q", textMagic)
	}
	var h Header

	// Fixed header fields, in order.
	headers := []struct {
		key   string
		parse func(val string) error
	}{
		{"program", func(v string) error {
			name, err := strconv.Unquote(v)
			if err != nil {
				return fmt.Errorf("bad program name %s: %w", v, err)
			}
			h.ProgramName = name
			return nil
		}},
		{"model", func(v string) error {
			m, err := memmodel.Parse(v)
			if err != nil {
				return err
			}
			h.Model = m
			return nil
		}},
		{"seed", func(v string) error {
			s, err := strconv.ParseInt(v, 10, 64)
			h.Seed = s
			return err
		}},
		{"cpus", func(v string) error {
			n, err := strconv.Atoi(v)
			h.NumCPUs = n
			return err
		}},
		{"locations", func(v string) error {
			n, err := strconv.Atoi(v)
			h.NumLocations = n
			return err
		}},
	}
	for _, hd := range headers {
		line, ok := p.next()
		if !ok {
			return nil, p.errf("unexpected end of input, want %q", hd.key)
		}
		key, val, found := strings.Cut(string(line), " ")
		if !found || key != hd.key {
			return nil, p.errf("want %q header, got %q", hd.key, line)
		}
		if err := hd.parse(val); err != nil {
			return nil, p.errf("%v", err)
		}
	}
	if h.NumCPUs < 0 || h.NumCPUs > 1<<16 {
		return nil, p.errf("unreasonable cpu count %d", h.NumCPUs)
	}
	if h.NumLocations < 0 || h.NumLocations > 1<<20 {
		return nil, p.errf("unreasonable location count %d", h.NumLocations)
	}
	b := NewBuilder(h)

	cur := -1
	for {
		line, ok := p.next()
		if !ok {
			return nil, p.errf("unexpected end of input, want \"end\"")
		}
		if string(line) == "end" {
			break
		}
		key, rest, _ := bytes.Cut(line, []byte(" "))
		switch string(key) {
		case "cpu":
			n, err := strconv.Atoi(string(rest))
			if err != nil || n < 0 || n >= h.NumCPUs {
				return nil, p.errf("bad cpu index %q", rest)
			}
			cur = n
		case "comp":
			if cur < 0 {
				return nil, p.errf("event before any \"cpu\" line")
			}
			if err := p.comp(b, cur, rest); err != nil {
				return nil, err
			}
		case "sync":
			if cur < 0 {
				return nil, p.errf("event before any \"cpu\" line")
			}
			if err := p.sync(b, cur, rest); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf("unknown directive %q", key)
		}
	}
	t, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("trace: text decode: %w", err)
	}
	return t, nil
}

// nextField splits the first whitespace-separated field off s, as
// strings.Fields separates them; field is empty when s holds no more.
func nextField(s []byte) (field, rest []byte) {
	s = bytes.TrimLeftFunc(s, unicode.IsSpace)
	end := bytes.IndexFunc(s, unicode.IsSpace)
	if end < 0 {
		end = len(s)
	}
	return s[:end], s[end:]
}

// comp parses a computation event's fields and adds it to processor
// cpu's stream. A location listed again takes its last PC.
func (p *textParser) comp(b *Builder, cpu int, rest []byte) error {
	p.reads, p.writes = p.reads[:0], p.writes[:0]
	for f, rest := nextField(rest); len(f) > 0; f, rest = nextField(rest) {
		k, v, found := bytes.Cut(f, []byte("="))
		if !found {
			return p.errf("bad comp field %q", f)
		}
		var list *[]LocPC
		switch string(k) {
		case "reads":
			list = &p.reads
		case "writes":
			list = &p.writes
		default:
			return p.errf("unknown comp field %q", k)
		}
		if err := parseAccessList(v, b.t.NumLocations, list); err != nil {
			return p.errf("%w", err)
		}
	}
	b.Comp(cpu, sortPCs(p.reads, false), sortPCs(p.writes, false))
	return nil
}

// sync parses a synchronization event's fields and adds it to processor
// cpu's stream.
func (p *textParser) sync(b *Builder, cpu int, rest []byte) error {
	role, rest := nextField(rest)
	if len(role) == 0 {
		return p.errf("sync event missing role")
	}
	s := SyncEvent{Observed: NoEvent}
	switch string(role) {
	case "acquire":
		s.Role = memmodel.RoleAcquire
	case "release":
		s.Role = memmodel.RoleRelease
	case "sync":
		s.Role = memmodel.RoleSyncOther
	default:
		return p.errf("unknown sync role %q", role)
	}
	for f, rest := nextField(rest); len(f) > 0; f, rest = nextField(rest) {
		k, v, found := bytes.Cut(f, []byte("="))
		if !found {
			return p.errf("bad sync field %q", f)
		}
		switch string(k) {
		case "loc":
			n, err := strconv.Atoi(string(v))
			if err != nil {
				return p.errf("bad loc %q", v)
			}
			s.Loc = program.Addr(n)
		case "seq":
			n, err := strconv.Atoi(string(v))
			if err != nil {
				return p.errf("bad seq %q", v)
			}
			s.SyncSeq = n
		case "pc":
			n, err := strconv.Atoi(string(v))
			if err != nil {
				return p.errf("bad pc %q", v)
			}
			s.PC = n
		case "paired":
			ref, role, err := parsePairing(v)
			if err != nil {
				return p.errf("%v", err)
			}
			s.Observed, s.ObservedRole = ref, role
		default:
			return p.errf("unknown sync field %q", k)
		}
	}
	b.Sync(cpu, s)
	return nil
}

// parseAccessList appends a loc@pc list to list. Every location must lie
// in [0, numLocations); one out of range fails with a *LocationError.
func parseAccessList(s []byte, numLocations int, list *[]LocPC) error {
	if len(s) == 0 {
		return nil
	}
	for {
		item, more, comma := bytes.Cut(s, []byte(","))
		locStr, pcStr, found := bytes.Cut(item, []byte("@"))
		if !found {
			return fmt.Errorf("bad access %q, want loc@pc", item)
		}
		loc, err := strconv.Atoi(string(locStr))
		if err != nil || loc < 0 {
			return fmt.Errorf("bad access location %q", locStr)
		}
		if loc >= numLocations {
			return &LocationError{Loc: uint64(loc), NumLocations: numLocations}
		}
		pc, err := strconv.Atoi(string(pcStr))
		if err != nil || pc < 0 {
			return fmt.Errorf("bad access pc %q", pcStr)
		}
		*list = append(*list, LocPC{Loc: program.Addr(loc), PC: pc})
		if !comma {
			return nil
		}
		s = more
	}
}

func parsePairing(s []byte) (EventRef, memmodel.Role, error) {
	refStr, roleStr, found := bytes.Cut(s, []byte("/"))
	if !found {
		return NoEvent, 0, fmt.Errorf("bad pairing %q, want cpu:index/role", s)
	}
	cpuStr, idxStr, found := bytes.Cut(refStr, []byte(":"))
	if !found {
		return NoEvent, 0, fmt.Errorf("bad pairing reference %q", refStr)
	}
	cpu, err := strconv.Atoi(string(cpuStr))
	if err != nil || cpu < 0 {
		return NoEvent, 0, fmt.Errorf("bad pairing cpu %q", cpuStr)
	}
	idx, err := strconv.Atoi(string(idxStr))
	if err != nil || idx < 0 {
		return NoEvent, 0, fmt.Errorf("bad pairing index %q", idxStr)
	}
	var role memmodel.Role
	switch string(roleStr) {
	case "release":
		role = memmodel.RoleRelease
	case "sync":
		role = memmodel.RoleSyncOther
	default:
		return NoEvent, 0, fmt.Errorf("bad pairing role %q", roleStr)
	}
	return EventRef{CPU: cpu, Index: idx}, role, nil
}
