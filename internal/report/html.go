package report

import (
	"fmt"
	"html/template"
	"io"

	"weakrace/internal/core"
	"weakrace/internal/provenance"
)

// RenderHTML writes a single-file static HTML race report: the run
// header and verdict, an SVG of the condensation DAG restricted to the
// data-race partitions (first partitions highlighted, edges the
// immediate precedence relation P), and one drill-down section per
// partition with its races' full witness explanations. The page embeds
// everything — no scripts, no external assets — so it can be archived
// as a CI artifact and opened anywhere.
func RenderHTML(w io.Writer, e *provenance.Explainer) error {
	a := e.Analysis()
	ws, err := e.All()
	if err != nil {
		return err
	}
	data := buildHTMLData(a, e, ws)
	return htmlTmpl.Execute(w, data)
}

// Geometry of the partition DAG rendering.
const (
	htmlNodeW   = 132
	htmlNodeH   = 46
	htmlGapX    = 72
	htmlGapY    = 28
	htmlMarginX = 24
	htmlMarginY = 24
)

type htmlNode struct {
	Index  int
	First  bool
	X, Y   int
	Races  int
	Events int
}

type htmlEdge struct {
	X1, Y1, X2, Y2 int
}

type htmlBoundary struct {
	CPU     int
	Pred    string
	Succ    string
	Partner int
	Of      string // which event this bracket is the cone of
	Stream  string // which event's stream is bracketed
}

type htmlRace struct {
	Race       int
	ARef, BRef string
	ADesc      string
	BDesc      string
	Locs       string
	LowerLevel []string
	Bounds     []htmlBoundary
	Chain      []int
}

type htmlPartition struct {
	Index  int
	First  bool
	Events string
	Races  []htmlRace
}

type htmlData struct {
	Program    string
	Model      string
	Seed       int64
	Events     int
	NumRaces   int
	DataRaces  int
	Partitions int
	First      int
	RaceFree   bool

	SVGW, SVGH int
	Nodes      []htmlNode
	Edges      []htmlEdge

	FirstParts []htmlPartition
	RestParts  []htmlPartition
}

func buildHTMLData(a *core.Analysis, e *provenance.Explainer, ws []*provenance.Witness) *htmlData {
	t := a.Trace
	d := &htmlData{
		Program:    t.ProgramName,
		Model:      t.Model.String(),
		Seed:       t.Seed,
		Events:     a.NumEvents,
		NumRaces:   len(a.Races) + a.SyncRaces,
		DataRaces:  len(a.Races),
		Partitions: len(a.Partitions),
		First:      len(a.FirstPartitions),
		RaceFree:   a.RaceFree(),
	}

	// Layer the partition DAG by longest path over the immediate edges:
	// a partition sits one layer right of its deepest immediate
	// predecessor, so every edge points left-to-right.
	n := len(a.Partitions)
	succ := e.ImmediateSuccessors()
	layer := make([]int, n)
	indeg := make([]int, n)
	for _, outs := range succ {
		for _, j := range outs {
			indeg[j]++
		}
	}
	queue := []int{}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, j := range succ[i] {
			if layer[i]+1 > layer[j] {
				layer[j] = layer[i] + 1
			}
			if indeg[j]--; indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	rowOf := make([]int, n)
	rows := map[int]int{} // layer → next free row
	maxLayer, maxRows := 0, 0
	for i := 0; i < n; i++ {
		rowOf[i] = rows[layer[i]]
		rows[layer[i]]++
		if layer[i] > maxLayer {
			maxLayer = layer[i]
		}
		if rows[layer[i]] > maxRows {
			maxRows = rows[layer[i]]
		}
	}
	if n > 0 {
		d.SVGW = htmlMarginX*2 + (maxLayer+1)*htmlNodeW + maxLayer*htmlGapX
		d.SVGH = htmlMarginY*2 + maxRows*htmlNodeH + (maxRows-1)*htmlGapY
	}
	pos := func(i int) (x, y int) {
		return htmlMarginX + layer[i]*(htmlNodeW+htmlGapX),
			htmlMarginY + rowOf[i]*(htmlNodeH+htmlGapY)
	}
	for i := 0; i < n; i++ {
		p := a.Partitions[i]
		x, y := pos(i)
		d.Nodes = append(d.Nodes, htmlNode{
			Index: i, First: p.First, X: x, Y: y,
			Races: len(p.Races), Events: len(p.Events),
		})
	}
	for i, outs := range succ {
		x1, y1 := pos(i)
		for _, j := range outs {
			x2, y2 := pos(j)
			d.Edges = append(d.Edges, htmlEdge{
				X1: x1 + htmlNodeW, Y1: y1 + htmlNodeH/2,
				X2: x2, Y2: y2 + htmlNodeH/2,
			})
		}
	}

	// Witnesses grouped by partition, first partitions leading.
	byPart := map[int][]htmlRace{}
	for _, wit := range ws {
		hr := htmlRace{
			Race:  wit.Race,
			ARef:  wit.A.Ref,
			BRef:  wit.B.Ref,
			ADesc: wit.A.Desc,
			BDesc: wit.B.Desc,
			Locs:  a.Races[wit.Race].Locs.String(),
			Chain: wit.Chain,
		}
		hr.LowerLevel = append(hr.LowerLevel, wit.LowerLevel...)
		for _, half := range []struct {
			of, stream string
			b          provenance.Boundary
		}{
			{wit.A.Ref, wit.B.Ref, wit.Certificate.A},
			{wit.B.Ref, wit.A.Ref, wit.Certificate.B},
		} {
			hr.Bounds = append(hr.Bounds, htmlBoundary{
				CPU: half.b.CPU, Pred: half.b.PredRef, Succ: half.b.SuccRef,
				Partner: half.b.Partner, Of: half.of, Stream: half.stream,
			})
		}
		byPart[wit.Partition] = append(byPart[wit.Partition], hr)
	}
	addPart := func(pi int) htmlPartition {
		p := a.Partitions[pi]
		return htmlPartition{
			Index:  pi,
			First:  p.First,
			Events: eventList(a, p.Events),
			Races:  byPart[pi],
		}
	}
	for _, pi := range a.FirstPartitions {
		d.FirstParts = append(d.FirstParts, addPart(pi))
	}
	for pi := range a.Partitions {
		if !a.Partitions[pi].First {
			d.RestParts = append(d.RestParts, addPart(pi))
		}
	}
	return d
}

var htmlTmpl = template.Must(template.New("report").Funcs(template.FuncMap{
	"mid": func(v, half int) int { return v + half },
	"ref": func(ref string) string {
		if ref == "-" {
			return "(none)"
		}
		return ref
	},
	"inc": func(v int) int { return v + 1 },
	"arrowchain": func(chain []int) string {
		s := ""
		for i, pi := range chain {
			if i > 0 {
				s += " ⇒ "
			}
			s += fmt.Sprintf("partition %d", pi)
		}
		return s
	},
}).Parse(htmlTemplateText))

const htmlTemplateText = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>weakrace report: {{.Program}}</title>
<style>
 body { font-family: -apple-system, "Segoe UI", Helvetica, Arial, sans-serif;
        margin: 2rem auto; max-width: 72rem; padding: 0 1rem; color: #1f2328; }
 h1 { font-size: 1.4rem; } h2 { font-size: 1.15rem; margin-top: 2rem; }
 code, .mono { font-family: ui-monospace, "SF Mono", Menlo, Consolas, monospace; font-size: .92em; }
 .meta { color: #59636e; }
 .verdict-free { background: #dafbe1; border: 1px solid #1a7f37; }
 .verdict-racy { background: #ffebe9; border: 1px solid #cf222e; }
 .verdict { padding: .6rem 1rem; border-radius: 6px; margin: 1rem 0; }
 svg { border: 1px solid #d1d9e0; border-radius: 6px; background: #fff; max-width: 100%; }
 .legend { font-size: .85rem; color: #59636e; margin: .4rem 0 1.2rem; }
 .chip { display: inline-block; width: .9em; height: .9em; border-radius: 3px;
         vertical-align: -0.1em; margin-right: .25em; }
 details { border: 1px solid #d1d9e0; border-radius: 6px; margin: .6rem 0; padding: .4rem .8rem; }
 details.first { border-color: #cf222e; background: #fff8f8; }
 summary { cursor: pointer; font-weight: 600; }
 .race { border-top: 1px dashed #d1d9e0; margin-top: .6rem; padding-top: .6rem; }
 .cert { background: #f6f8fa; border-radius: 6px; padding: .5rem .8rem; margin: .4rem 0; }
 .tag-first { color: #cf222e; font-weight: 600; }
 .tag-rest { color: #59636e; }
 ul { margin: .3rem 0 .3rem 1.2rem; padding: 0; }
</style>
</head>
<body>
<h1>weakrace report: <code>{{.Program}}</code></h1>
<p class="meta">model {{.Model}}, seed {{.Seed}} — {{.Events}} events,
{{.NumRaces}} race(s) ({{.DataRaces}} data), {{.Partitions}} partition(s) ({{.First}} first)</p>

{{if .RaceFree}}
<div class="verdict verdict-free"><strong>NO DATA RACES.</strong>
By Condition 3.4(1) this execution was sequentially consistent.</div>
{{else}}
<div class="verdict verdict-racy"><strong>DATA RACES DETECTED.</strong>
Report the first partitions: by Theorem 4.2 each contains a race that occurs
in a sequentially consistent execution — debug those before trusting the rest.</div>

<h2>Partition DAG</h2>
<p class="legend"><span class="chip" style="background:#ffd6d6;border:1px solid #cf222e"></span>first partition
&nbsp;&nbsp;<span class="chip" style="background:#fff;border:1px solid #59636e"></span>non-first partition
&nbsp;&nbsp;edges: immediate precedence in the partition order P (Definition 4.1)</p>
<svg width="{{.SVGW}}" height="{{.SVGH}}" viewBox="0 0 {{.SVGW}} {{.SVGH}}" role="img"
     aria-label="condensation DAG of data-race partitions">
 <defs>
  <marker id="arr" viewBox="0 0 10 10" refX="9" refY="5" markerWidth="7" markerHeight="7" orient="auto-start-reverse">
   <path d="M 0 0 L 10 5 L 0 10 z" fill="#59636e"/>
  </marker>
 </defs>
 {{range .Edges}}
 <line x1="{{.X1}}" y1="{{.Y1}}" x2="{{.X2}}" y2="{{.Y2}}" stroke="#59636e" stroke-width="1.4" marker-end="url(#arr)"/>
 {{end}}
 {{range .Nodes}}
 <g>
  <rect x="{{.X}}" y="{{.Y}}" width="132" height="46" rx="6"
        fill="{{if .First}}#ffd6d6{{else}}#ffffff{{end}}"
        stroke="{{if .First}}#cf222e{{else}}#59636e{{end}}" stroke-width="{{if .First}}2{{else}}1.2{{end}}"/>
  <text x="{{mid .X 66}}" y="{{mid .Y 19}}" text-anchor="middle" font-size="12" font-weight="600">
   partition {{.Index}}{{if .First}} ★{{end}}</text>
  <text x="{{mid .X 66}}" y="{{mid .Y 36}}" text-anchor="middle" font-size="10" fill="#59636e">
   {{.Races}} race(s), {{.Events}} event(s)</text>
 </g>
 {{end}}
</svg>

<h2>First partitions</h2>
{{range .FirstParts}}{{template "partition" .}}{{end}}
{{if .RestParts}}
<h2>Non-first partitions</h2>
<p class="meta">Each is affected by an earlier partition (Definition 3.3); its races
may be artifacts of an upstream race.</p>
{{range .RestParts}}{{template "partition" .}}{{end}}
{{end}}
{{end}}

<p class="meta">Generated by weakrace — post-mortem detection of data races on
weak memory systems. Certificates bracket each racing event against the other
event's processor stream; the partner lying strictly inside the bracket proves
the pair is hb1-unordered.</p>
</body>
</html>
{{define "partition"}}
<details class="{{if .First}}first{{end}}" {{if .First}}open{{end}}>
<summary>partition {{.Index}} —
<span class="{{if .First}}tag-first{{else}}tag-rest{{end}}">{{if .First}}FIRST{{else}}non-first{{end}}</span>
({{len .Races}} data race(s))</summary>
<p class="mono meta">events {{.Events}}</p>
{{range .Races}}
<div class="race">
 <p><strong>race {{.Race}}</strong> ⟨<code>{{.ARef}}</code>, <code>{{.BRef}}</code>⟩ on locations <code>{{.Locs}}</code></p>
 <ul>
  <li><code>{{.ARef}}</code>: <span class="mono">{{.ADesc}}</span></li>
  <li><code>{{.BRef}}</code>: <span class="mono">{{.BDesc}}</span></li>
 </ul>
 {{if .LowerLevel}}
 <p>lower-level candidates:</p>
 <ul>{{range .LowerLevel}}<li class="mono">{{.}}</li>{{end}}</ul>
 {{end}}
 <div class="cert">
  <p><strong>unorderedness certificate</strong></p>
  <ul>
  {{range .Bounds}}
   <li>on P{{inc .CPU}}: last event reaching <code>{{.Of}}</code> is <code>{{ref .Pred}}</code>,
   first event <code>{{.Of}}</code> reaches is <code>{{ref .Succ}}</code>;
   <code>{{.Stream}}</code> (index {{.Partner}}) lies strictly between ⇒ unordered</li>
  {{end}}
  </ul>
 </div>
 {{if .Chain}}<p>affected by: <span class="mono">{{arrowchain .Chain}}</span></p>{{end}}
</div>
{{end}}
</details>
{{end}}
`
