package measure

// The structured artifact model: every table and figure of the report is
// exposed as a self-describing Artifact — a name, a typed column schema,
// typed rows and scalar summary stats — behind one shape. Every consumer
// (the text renderer, the CSV exporter, the JSON encoder, the HTTP query
// layer in internal/query) walks the same model, so the formats cannot
// drift from each other: they are different encodings of one value.

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"mevscope/internal/stats"
	"mevscope/internal/types"
)

// ValueKind types one artifact column (and cell).
type ValueKind int

// Column kinds. Month cells render as the paper's axis labels ("2/2021")
// in every encoding.
const (
	KindString ValueKind = iota
	KindInt
	KindFloat
	KindMonth
)

// String names the kind for schemas and JSON.
func (k ValueKind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindMonth:
		return "month"
	default:
		return "string"
	}
}

// MarshalJSON encodes the kind by name.
func (k ValueKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// Column is one column of an artifact's schema.
type Column struct {
	Name string    `json:"name"`
	Kind ValueKind `json:"kind"`
}

// Value is one typed cell. The zero value is the empty string cell.
// Ensemble-merged artifacts annotate float cells with the standard
// deviation across runs (HasStd); Float then carries the mean.
type Value struct {
	Kind  ValueKind
	Str   string
	Int   int64
	Float float64
	Month types.Month

	// Std is the cross-run standard deviation of an ensemble-annotated
	// cell; HasStd marks the annotation.
	Std    float64
	HasStd bool
}

// Cell constructors.
func str(s string) Value         { return Value{Kind: KindString, Str: s} }
func cint(n int) Value           { return Value{Kind: KindInt, Int: int64(n)} }
func cfloat(x float64) Value     { return Value{Kind: KindFloat, Float: x} }
func cmonth(m types.Month) Value { return Value{Kind: KindMonth, Month: m} }

// MeanStd builds an ensemble-annotated cell: the mean over runs, with
// their standard deviation.
func MeanStd(mean, sd float64) Value {
	return Value{Kind: KindFloat, Float: mean, Std: sd, HasStd: true}
}

// Text renders the cell the way the CSV exporters always have: integers
// verbatim, floats with six decimals, months as axis labels.
func (v Value) Text() string {
	switch v.Kind {
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float, 'f', 6, 64)
	case KindMonth:
		return v.Month.String()
	default:
		return v.Str
	}
}

// MarshalJSON encodes the cell as its native JSON type; annotated cells
// become {"mean": …, "std": …} objects.
func (v Value) MarshalJSON() ([]byte, error) {
	if v.HasStd {
		return json.Marshal(struct {
			Mean float64 `json:"mean"`
			Std  float64 `json:"std"`
		}{v.Float, v.Std})
	}
	switch v.Kind {
	case KindInt:
		return json.Marshal(v.Int)
	case KindFloat:
		return json.Marshal(v.Float)
	case KindMonth:
		return json.Marshal(v.Month.String())
	default:
		return json.Marshal(v.Str)
	}
}

// Scalar is one named summary statistic of an artifact.
type Scalar struct {
	Name  string `json:"name"`
	Value Value  `json:"value"`
}

// Artifact is one self-describing table or figure of the report.
type Artifact struct {
	// Name is the stable identifier ("fig3", "table1", …) used for CSV
	// file names and HTTP routes.
	Name string `json:"name"`
	// Title is the section heading of the text report.
	Title string `json:"title"`
	// Columns is the row schema; empty for scalar-only artifacts.
	Columns []Column `json:"columns,omitempty"`
	// Rows holds one Value per column, in column order.
	Rows [][]Value `json:"rows"`
	// Scalars are the artifact's summary statistics.
	Scalars []Scalar `json:"-"`
}

// Column returns the index of the named column, -1 when absent.
func (a Artifact) Column(name string) int {
	for i, c := range a.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Scalar returns the named summary statistic, the zero Value when absent.
func (a Artifact) Scalar(name string) Value {
	for _, s := range a.Scalars {
		if s.Name == name {
			return s.Value
		}
	}
	return Value{}
}

// WriteCSV encodes the artifact as CSV: the column names as header, one
// record per row. Scalar-only artifacts encode as metric,value pairs.
func (a Artifact) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if len(a.Columns) == 0 && len(a.Scalars) > 0 {
		if err := cw.Write([]string{"metric", "value"}); err != nil {
			return err
		}
		for _, s := range a.Scalars {
			if err := cw.Write([]string{s.Name, s.Value.Text()}); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	}
	header := make([]string, len(a.Columns))
	for i, c := range a.Columns {
		header[i] = c.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	record := make([]string, len(a.Columns))
	for _, row := range a.Rows {
		for i := range record {
			record[i] = row[i].Text()
		}
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// artifactJSON is the wire shape of an artifact.
type artifactJSON struct {
	Name    string           `json:"name"`
	Title   string           `json:"title"`
	Columns []Column         `json:"columns,omitempty"`
	Rows    [][]Value        `json:"rows"`
	Scalars map[string]Value `json:"scalars,omitempty"`
}

// wire converts to the JSON shape (scalars as an object; json.Marshal
// sorts the keys, so the encoding is deterministic).
func (a Artifact) wire() artifactJSON {
	out := artifactJSON{Name: a.Name, Title: a.Title, Columns: a.Columns, Rows: a.Rows}
	if out.Rows == nil {
		out.Rows = [][]Value{}
	}
	if len(a.Scalars) > 0 {
		out.Scalars = make(map[string]Value, len(a.Scalars))
		for _, s := range a.Scalars {
			out.Scalars[s.Name] = s.Value
		}
	}
	return out
}

// MarshalJSON encodes the full artifact.
func (a Artifact) MarshalJSON() ([]byte, error) { return json.Marshal(a.wire()) }

// WriteJSON encodes the artifact as indented JSON.
func (a Artifact) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// ---------------------------------------------------------------------------
// Report → artifacts

// artifactNames is the single source of the artifact set and its paper
// order; Artifacts, Artifact and ArtifactNames all derive from it.
var artifactNames = []string{
	"table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
	"mevsplit", "bundles", "negatives", "damage", "concentration",
	"private_links", "vantage_sensitivity",
}

// Artifacts returns every table and figure of the report as a structured
// artifact, in paper order. Artifacts that need an observation window
// (fig9, mevsplit, private_links) are present with zero rows when the run
// had none, so the artifact list — and the CSV file set — is stable
// across runs.
func (r *Report) Artifacts() []Artifact {
	out := make([]Artifact, 0, len(artifactNames))
	for _, name := range artifactNames {
		a, _ := r.Artifact(name)
		out = append(out, a)
	}
	return out
}

// Artifact builds one artifact by name — the others are not constructed.
func (r *Report) Artifact(name string) (Artifact, bool) {
	switch name {
	case "table1":
		return r.table1Artifact(), true
	case "fig3":
		return r.fig3Artifact(), true
	case "fig4":
		return r.fig4Artifact(), true
	case "fig5":
		return r.fig5Artifact(), true
	case "fig6":
		return r.fig6Artifact(), true
	case "fig7":
		return r.fig7Artifact(), true
	case "fig8":
		return r.fig8Artifact(), true
	case "fig9":
		return r.fig9Artifact(), true
	case "mevsplit":
		return r.mevSplitArtifact(), true
	case "bundles":
		return r.bundlesArtifact(), true
	case "negatives":
		return r.negativesArtifact(), true
	case "damage":
		return r.damageArtifact(), true
	case "concentration":
		return r.concentrationArtifact(), true
	case "private_links":
		return r.privateLinksArtifact(), true
	case "vantage_sensitivity":
		return r.vantageSensitivityArtifact(), true
	}
	return Artifact{}, false
}

// ArtifactNames lists the report's artifact names in paper order.
func ArtifactNames() []string { return append([]string(nil), artifactNames...) }

func (r *Report) table1Artifact() Artifact {
	a := Artifact{
		Name:  "table1",
		Title: "Table 1: MEV dataset overview",
		Columns: []Column{
			{"strategy", KindString}, {"extractions", KindInt},
			{"via_flashbots", KindInt}, {"via_flash_loans", KindInt}, {"via_both", KindInt},
		},
	}
	emit := func(row Table1Row) {
		a.Rows = append(a.Rows, []Value{
			str(row.Strategy), cint(row.Extractions), cint(row.ViaFlashbots),
			cint(row.ViaFlashLoans), cint(row.ViaBoth),
		})
	}
	for _, row := range r.Table1.Rows {
		emit(row)
	}
	emit(r.Table1.Total)
	return a
}

func (r *Report) fig3Artifact() Artifact {
	a := Artifact{
		Name:  "fig3",
		Title: "Figure 3: Flashbots block ratio per month",
		Columns: []Column{
			{"month", KindMonth}, {"flashbots_blocks", KindInt},
			{"total_blocks", KindInt}, {"ratio", KindFloat},
		},
	}
	for _, row := range r.Fig3 {
		a.Rows = append(a.Rows, []Value{
			cmonth(row.Month), cint(row.FlashbotsBlocks), cint(row.TotalBlocks), cfloat(row.Ratio()),
		})
	}
	return a
}

func (r *Report) fig4Artifact() Artifact {
	a := Artifact{
		Name:    "fig4",
		Title:   "Figure 4: estimated Flashbots hashrate per month",
		Columns: []Column{{"month", KindMonth}, {"flashbots_hashrate", KindFloat}},
	}
	for _, mv := range r.Fig4 {
		a.Rows = append(a.Rows, []Value{cmonth(mv.Month), cfloat(mv.Value)})
	}
	return a
}

func (r *Report) fig5Artifact() Artifact {
	a := Artifact{
		Name:    "fig5",
		Title:   "Figure 5: miners with ≥ n Flashbots blocks",
		Columns: []Column{{"month", KindMonth}},
	}
	for _, th := range r.Fig5.Thresholds {
		a.Columns = append(a.Columns, Column{fmt.Sprintf("ge_%d", th), KindInt})
	}
	for i, m := range r.Fig5.Months {
		row := []Value{cmonth(m)}
		for _, c := range r.Fig5.Counts[i] {
			row = append(row, cint(c))
		}
		a.Rows = append(a.Rows, row)
	}
	a.Scalars = []Scalar{{"max_miners_in_any_month", cint(r.Fig5.MaxMinersInAnyMonth())}}
	return a
}

// fig5Thresholds recovers the threshold list from a fig5 artifact's
// column names — the schema itself carries them (ge_<n>).
func fig5Thresholds(a Artifact) []int {
	var out []int
	for _, c := range a.Columns[1:] {
		n, err := strconv.Atoi(strings.TrimPrefix(c.Name, "ge_"))
		if err != nil {
			continue
		}
		out = append(out, n)
	}
	return out
}

func (r *Report) fig6Artifact() Artifact {
	a := Artifact{
		Name:  "fig6",
		Title: "Figure 6: sandwiches per month vs gas price",
		Columns: []Column{
			{"month", KindMonth}, {"flashbots_sandwiches", KindInt},
			{"non_flashbots_sandwiches", KindInt}, {"avg_gas_gwei", KindFloat},
			{"median_gas_gwei", KindFloat},
		},
		Scalars: []Scalar{
			{"corr_non_fb", cfloat(r.Fig6.CorrNonFB)},
			{"corr_all", cfloat(r.Fig6.CorrAll)},
		},
	}
	for _, row := range r.Fig6.Rows {
		a.Rows = append(a.Rows, []Value{
			cmonth(row.Month), cint(row.FlashbotsSand), cint(row.NonFlashbotsSand),
			cfloat(row.AvgGasPriceGwei), cfloat(row.MedianGasPriceGwei),
		})
	}
	return a
}

// fig7Keys is the fixed MEV-type column order of Figure 7.
var fig7Keys = []string{"sandwiches", "arbitrages", "liquidations", "other"}

func (r *Report) fig7Artifact() Artifact {
	a := Artifact{
		Name:    "fig7",
		Title:   "Figure 7: Flashbots searchers / transactions by MEV type per month",
		Columns: []Column{{"month", KindMonth}},
	}
	for _, k := range fig7Keys {
		a.Columns = append(a.Columns, Column{k + "_searchers", KindInt}, Column{k + "_txs", KindInt})
	}
	for _, row := range r.Fig7.Rows {
		out := []Value{cmonth(row.Month)}
		for _, k := range fig7Keys {
			out = append(out, cint(row.Searchers[k]), cint(row.Txs[k]))
		}
		a.Rows = append(a.Rows, out)
	}
	return a
}

func (r *Report) fig8Artifact() Artifact {
	a := Artifact{
		Name:  "fig8",
		Title: "Figure 8: sandwich profit (net ETH) by subpopulation",
		Columns: []Column{
			{"subpopulation", KindString}, {"n", KindInt}, {"mean_eth", KindFloat},
			{"median_eth", KindFloat}, {"std_eth", KindFloat}, {"min_eth", KindFloat},
			{"max_eth", KindFloat},
		},
	}
	emit := func(name string, s stats.Summary) {
		a.Rows = append(a.Rows, []Value{
			str(name), cint(s.N), cfloat(s.Mean), cfloat(s.Median),
			cfloat(s.Std), cfloat(s.Min), cfloat(s.Max),
		})
	}
	emit("miner_non_flashbots", r.Fig8.MinerNonFB)
	emit("miner_flashbots", r.Fig8.MinerFB)
	emit("searcher_non_flashbots", r.Fig8.SearcherNonFB)
	emit("searcher_flashbots", r.Fig8.SearcherFB)
	return a
}

func (r *Report) fig9Artifact() Artifact {
	a := Artifact{
		Name:    "fig9",
		Title:   "Figure 9: private vs public MEV extraction (window sandwiches)",
		Columns: []Column{{"channel", KindString}, {"sandwiches", KindInt}, {"share", KindFloat}},
	}
	total := 0
	if r.Fig9 != nil {
		sp := r.Fig9.Split
		total = sp.Total
		a.Rows = append(a.Rows,
			[]Value{str("flashbots"), cint(sp.Flashbots), cfloat(sp.FlashbotsShare())},
			[]Value{str("private_non_flashbots"), cint(sp.Private), cfloat(sp.PrivateShare())},
			[]Value{str("public"), cint(sp.Public), cfloat(sp.PublicShare())},
		)
	}
	a.Scalars = []Scalar{{"total", cint(total)}}
	return a
}

func (r *Report) mevSplitArtifact() Artifact {
	a := Artifact{
		Name:  "mevsplit",
		Title: "§6.2: private vs public extraction by MEV type",
		Columns: []Column{
			{"kind", KindString}, {"total", KindInt}, {"flashbots_share", KindFloat},
			{"private_share", KindFloat}, {"public_share", KindFloat},
		},
	}
	if r.MEVSplit == nil {
		return a
	}
	for _, kind := range []string{"arbitrage", "liquidation"} {
		ks := r.MEVSplit.ByKind[kind]
		if ks == nil || ks.Total == 0 {
			continue
		}
		a.Rows = append(a.Rows, []Value{
			str(kind), cint(ks.Total), cfloat(ks.FlashbotsShare()),
			cfloat(ks.PrivateShare()), cfloat(ks.PublicShare()),
		})
	}
	return a
}

func (r *Report) bundlesArtifact() Artifact {
	b := r.Bundles
	a := Artifact{
		Name:    "bundles",
		Title:   "§4.1 bundle statistics",
		Columns: []Column{{"bundle_type", KindString}, {"count", KindInt}},
		Scalars: []Scalar{
			{"bundles", cint(b.Bundles)},
			{"flashbots_blocks", cint(b.FlashbotsBlocks)},
			{"bundles_per_block_mean", cfloat(b.BundlesPerBlock.Mean)},
			{"bundles_per_block_median", cfloat(b.BundlesPerBlock.Median)},
			{"bundles_per_block_max", cfloat(b.BundlesPerBlock.Max)},
			{"txs_per_bundle_mean", cfloat(b.TxsPerBundle.Mean)},
			{"txs_per_bundle_median", cfloat(b.TxsPerBundle.Median)},
			{"max_bundle_txs", cint(b.MaxBundleTxs)},
			{"single_tx_share", cfloat(b.SingleTxShare())},
		},
	}
	names := make([]string, 0, len(b.ByType))
	for t := range b.ByType {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, t := range names {
		a.Rows = append(a.Rows, []Value{str(t), cint(b.ByType[t])})
	}
	return a
}

func (r *Report) negativesArtifact() Artifact {
	n := r.Negatives
	return Artifact{
		Name:  "negatives",
		Title: "§5.2 negative profits",
		Scalars: []Scalar{
			{"flashbots_sandwiches", cint(n.FlashbotsSandwiches)},
			{"unprofitable", cint(n.Unprofitable)},
			{"share", cfloat(n.Share())},
			{"total_loss_eth", cfloat(n.TotalLossETH)},
		},
	}
}

func (r *Report) damageArtifact() Artifact {
	dm := r.Damage
	return Artifact{
		Name:  "damage",
		Title: "extension: victim damage (sandwich slippage extracted)",
		Scalars: []Scalar{
			{"victims", cint(dm.Victims)},
			{"total_eth", cfloat(dm.TotalETH)},
			{"mean_eth", cfloat(dm.Summary.Mean)},
			{"median_eth", cfloat(dm.Summary.Median)},
		},
	}
}

func (r *Report) concentrationArtifact() Artifact {
	return Artifact{
		Name:  "concentration",
		Title: "§4.4 mining concentration",
		Scalars: []Scalar{
			{"miners", cint(r.Concentration.Miners)},
			{"top2_share", cfloat(r.Concentration.Top2Share)},
		},
	}
}

func (r *Report) vantageSensitivityArtifact() Artifact {
	vs := r.VantageSensitivity
	a := Artifact{
		Name:  "vantage_sensitivity",
		Title: "extension: vantage sensitivity (observation coverage and §6 private counts per vantage)",
		Columns: []Column{
			{"month", KindMonth}, {"vantage", KindInt}, {"node", KindInt},
			{"observed", KindInt}, {"union_observed", KindInt}, {"coverage", KindFloat},
		},
	}
	for _, m := range vs.Months() {
		unionN := vs.Union.PerMonth[m]
		for _, v := range vs.Vantages {
			coverage := 0.0
			if unionN > 0 {
				coverage = float64(v.PerMonth[m]) / float64(unionN)
			}
			a.Rows = append(a.Rows, []Value{
				cmonth(m), cint(v.Vantage), cint(v.Node),
				cint(v.PerMonth[m]), cint(unionN), cfloat(coverage),
			})
		}
	}
	a.Scalars = []Scalar{
		{"vantages", cint(len(vs.Vantages))},
		{"view", str(vs.View)},
		{"union_observed", cint(vs.Union.Observed)},
		{"union_private_sandwiches", cint(vs.Union.PrivateSandwiches)},
	}
	for _, v := range vs.Vantages {
		prefix := fmt.Sprintf("vantage%d", v.Vantage)
		a.Scalars = append(a.Scalars,
			Scalar{prefix + "_observed", cint(v.Observed)},
			Scalar{prefix + "_private_sandwiches", cint(v.PrivateSandwiches)},
			// A single vantage misses public traffic the union catches, and
			// every miss inflates its private count: the delta is the §6
			// overcount attributable to that vantage's blind spots.
			Scalar{prefix + "_private_delta_vs_union", cint(v.PrivateSandwiches - vs.Union.PrivateSandwiches)},
		)
	}
	return a
}

func (r *Report) privateLinksArtifact() Artifact {
	a := Artifact{
		Name:  "private_links",
		Title: "§6.3 private non-Flashbots sandwich accounts",
		Columns: []Column{
			{"account", KindString}, {"total", KindInt},
			{"miners", KindInt}, {"single_miner", KindString},
		},
	}
	for _, l := range r.PrivateLinks {
		single := ""
		if m, ok := l.SingleMiner(); ok {
			single = m.String()
		}
		a.Rows = append(a.Rows, []Value{
			str(l.Account.String()), cint(l.Total), cint(len(l.Miners)), str(single),
		})
	}
	return a
}
