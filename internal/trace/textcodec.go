package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"weakrace/internal/bitset"
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
	for c, evs := range t.PerCPU {
		fmt.Fprintf(bw, "cpu %d\n", c)
		for _, ev := range evs {
			switch ev.Kind {
			case Comp:
				fmt.Fprintf(bw, "comp reads=%s writes=%s\n",
					encodeAccessList(ev.Reads, ev.ReadPC),
					encodeAccessList(ev.Writes, ev.WritePC))
			case Sync:
				fmt.Fprintf(bw, "sync %s loc=%d seq=%d pc=%d", ev.Role, ev.Loc, ev.SyncSeq, ev.PC)
				if ev.Observed.Valid() {
					fmt.Fprintf(bw, " paired=%d:%d/%s", ev.Observed.CPU, ev.Observed.Index, ev.ObservedRole)
				}
				fmt.Fprintln(bw)
			default:
				return fmt.Errorf("trace: text encode: unknown event kind %d", ev.Kind)
			}
		}
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

func encodeAccessList(set *bitset.Set, pcs map[program.Addr]int) string {
	locs := set.Slice()
	sort.Ints(locs)
	parts := make([]string, len(locs))
	for i, loc := range locs {
		parts[i] = fmt.Sprintf("%d@%d", loc, pcs[program.Addr(loc)])
	}
	return strings.Join(parts, ",")
}

// textParser tracks position for error messages.
type textParser struct {
	sc   *bufio.Scanner
	line int
}

func (p *textParser) next() (string, bool) {
	for p.sc.Scan() {
		p.line++
		line := strings.TrimSpace(p.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return line, true
	}
	return "", false
}

func (p *textParser) errf(format string, args ...any) error {
	return fmt.Errorf("trace: text decode: line %d: %w", p.line, fmt.Errorf(format, args...))
}

// DecodeText parses a text-form trace and validates it.
func DecodeText(r io.Reader) (*Trace, error) {
	p := &textParser{sc: bufio.NewScanner(r)}
	p.sc.Buffer(make([]byte, 1<<16), 1<<24)

	line, ok := p.next()
	if !ok || line != textMagic {
		return nil, p.errf("missing header %q", textMagic)
	}
	t := &Trace{}

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
			t.ProgramName = name
			return nil
		}},
		{"model", func(v string) error {
			m, err := memmodel.Parse(v)
			if err != nil {
				return err
			}
			t.Model = m
			return nil
		}},
		{"seed", func(v string) error {
			s, err := strconv.ParseInt(v, 10, 64)
			t.Seed = s
			return err
		}},
		{"cpus", func(v string) error {
			n, err := strconv.Atoi(v)
			t.NumCPUs = n
			return err
		}},
		{"locations", func(v string) error {
			n, err := strconv.Atoi(v)
			t.NumLocations = n
			return err
		}},
	}
	for _, h := range headers {
		line, ok := p.next()
		if !ok {
			return nil, p.errf("unexpected end of input, want %q", h.key)
		}
		key, val, found := strings.Cut(line, " ")
		if !found || key != h.key {
			return nil, p.errf("want %q header, got %q", h.key, line)
		}
		if err := h.parse(val); err != nil {
			return nil, p.errf("%v", err)
		}
	}
	if t.NumCPUs < 0 || t.NumCPUs > 1<<16 {
		return nil, p.errf("unreasonable cpu count %d", t.NumCPUs)
	}
	if t.NumLocations < 0 || t.NumLocations > 1<<20 {
		return nil, p.errf("unreasonable location count %d", t.NumLocations)
	}
	t.PerCPU = make([][]*Event, t.NumCPUs)

	cur := -1
	for {
		line, ok := p.next()
		if !ok {
			return nil, p.errf("unexpected end of input, want \"end\"")
		}
		if line == "end" {
			break
		}
		key, rest, _ := strings.Cut(line, " ")
		switch key {
		case "cpu":
			n, err := strconv.Atoi(rest)
			if err != nil || n < 0 || n >= t.NumCPUs {
				return nil, p.errf("bad cpu index %q", rest)
			}
			cur = n
		case "comp":
			if cur < 0 {
				return nil, p.errf("event before any \"cpu\" line")
			}
			ev := &Event{
				Kind: Comp, SyncSeq: -1, Observed: NoEvent,
				Reads: &bitset.Set{}, Writes: &bitset.Set{},
				ReadPC: map[program.Addr]int{}, WritePC: map[program.Addr]int{},
			}
			fields := strings.Fields(rest)
			for _, f := range fields {
				k, v, found := strings.Cut(f, "=")
				if !found {
					return nil, p.errf("bad comp field %q", f)
				}
				var set *bitset.Set
				var pcs map[program.Addr]int
				switch k {
				case "reads":
					set, pcs = ev.Reads, ev.ReadPC
				case "writes":
					set, pcs = ev.Writes, ev.WritePC
				default:
					return nil, p.errf("unknown comp field %q", k)
				}
				if err := parseAccessList(v, t.NumLocations, set, pcs); err != nil {
					return nil, p.errf("%w", err)
				}
			}
			t.PerCPU[cur] = append(t.PerCPU[cur], ev)
		case "sync":
			if cur < 0 {
				return nil, p.errf("event before any \"cpu\" line")
			}
			fields := strings.Fields(rest)
			if len(fields) < 1 {
				return nil, p.errf("sync event missing role")
			}
			ev := &Event{Kind: Sync, Observed: NoEvent}
			switch fields[0] {
			case "acquire":
				ev.Role = memmodel.RoleAcquire
			case "release":
				ev.Role = memmodel.RoleRelease
			case "sync":
				ev.Role = memmodel.RoleSyncOther
			default:
				return nil, p.errf("unknown sync role %q", fields[0])
			}
			for _, f := range fields[1:] {
				k, v, found := strings.Cut(f, "=")
				if !found {
					return nil, p.errf("bad sync field %q", f)
				}
				switch k {
				case "loc":
					n, err := strconv.Atoi(v)
					if err != nil {
						return nil, p.errf("bad loc %q", v)
					}
					ev.Loc = program.Addr(n)
				case "seq":
					n, err := strconv.Atoi(v)
					if err != nil {
						return nil, p.errf("bad seq %q", v)
					}
					ev.SyncSeq = n
				case "pc":
					n, err := strconv.Atoi(v)
					if err != nil {
						return nil, p.errf("bad pc %q", v)
					}
					ev.PC = n
				case "paired":
					ref, role, err := parsePairing(v)
					if err != nil {
						return nil, p.errf("%v", err)
					}
					ev.Observed = ref
					ev.ObservedRole = role
				default:
					return nil, p.errf("unknown sync field %q", k)
				}
			}
			t.PerCPU[cur] = append(t.PerCPU[cur], ev)
		default:
			return nil, p.errf("unknown directive %q", key)
		}
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("trace: text decode: %w", &InvalidError{Err: err})
	}
	return t, nil
}

// parseAccessList adds a loc@pc list to set and pcs. Every location must
// lie in [0, numLocations) — one out of range fails with a
// *LocationError — and set grows once, to its largest location.
func parseAccessList(s string, numLocations int, set *bitset.Set, pcs map[program.Addr]int) error {
	if s == "" {
		return nil
	}
	var locs []int
	for _, item := range strings.Split(s, ",") {
		locStr, pcStr, found := strings.Cut(item, "@")
		if !found {
			return fmt.Errorf("bad access %q, want loc@pc", item)
		}
		loc, err := strconv.Atoi(locStr)
		if err != nil || loc < 0 {
			return fmt.Errorf("bad access location %q", locStr)
		}
		if loc >= numLocations {
			return &LocationError{Loc: uint64(loc), NumLocations: numLocations}
		}
		pc, err := strconv.Atoi(pcStr)
		if err != nil || pc < 0 {
			return fmt.Errorf("bad access pc %q", pcStr)
		}
		locs = append(locs, loc)
		pcs[program.Addr(loc)] = pc
	}
	set.Union(bitset.FromSlice(locs))
	return nil
}

func parsePairing(s string) (EventRef, memmodel.Role, error) {
	refStr, roleStr, found := strings.Cut(s, "/")
	if !found {
		return NoEvent, 0, fmt.Errorf("bad pairing %q, want cpu:index/role", s)
	}
	cpuStr, idxStr, found := strings.Cut(refStr, ":")
	if !found {
		return NoEvent, 0, fmt.Errorf("bad pairing reference %q", refStr)
	}
	cpu, err := strconv.Atoi(cpuStr)
	if err != nil || cpu < 0 {
		return NoEvent, 0, fmt.Errorf("bad pairing cpu %q", cpuStr)
	}
	idx, err := strconv.Atoi(idxStr)
	if err != nil || idx < 0 {
		return NoEvent, 0, fmt.Errorf("bad pairing index %q", idxStr)
	}
	var role memmodel.Role
	switch roleStr {
	case "release":
		role = memmodel.RoleRelease
	case "sync":
		role = memmodel.RoleSyncOther
	default:
		return NoEvent, 0, fmt.Errorf("bad pairing role %q", roleStr)
	}
	return EventRef{CPU: cpu, Index: idx}, role, nil
}
