package types

import (
	"fmt"
	"strings"
	"time"
)

// The paper's measurement window spans blocks 10,000,000 (May 2020) to
// 14,444,725 (March 2022) — 23 calendar months. The simulation compresses
// each month to a configurable number of blocks but preserves the calendar
// so monthly aggregations line up with the paper's figures.

// Month indexes a calendar month within the study window: 0 = May 2020,
// 22 = March 2022.
type Month int

// Study window constants.
const (
	// StudyMonths is the number of calendar months in the paper's window.
	StudyMonths = 23
	// FlashbotsLaunchMonth is February 2021 (first Flashbots block mined
	// Feb 11th, 2021), as a Month index.
	FlashbotsLaunchMonth Month = 9
	// LondonForkMonth is August 2021 (EIP-1559).
	LondonForkMonth Month = 15
	// BerlinForkMonth is April 2021.
	BerlinForkMonth Month = 11
	// ObservationStartMonth is when the pending-transaction observer starts
	// (November 2021; the paper observed Nov 8th 2021 – Apr 9th 2022).
	ObservationStartMonth Month = 18
	// PrivateWindowStartMonth begins the private-inference analysis window
	// (paper: Nov 23rd 2021 – Mar 23rd 2022).
	PrivateWindowStartMonth Month = 18
)

var studyStart = time.Date(2020, time.May, 1, 0, 0, 0, 0, time.UTC)

// Date returns the first day of the month.
func (m Month) Date() time.Time { return studyStart.AddDate(0, int(m), 0) }

// String renders the month like the paper's x-axis labels, e.g. "2/2021".
func (m Month) String() string {
	t := m.Date()
	return fmt.Sprintf("%d/%d", int(t.Month()), t.Year())
}

// Label renders the month as an ISO-style label, e.g. "2021-03" — the
// form archive segment directories and query parameters use.
func (m Month) Label() string {
	t := m.Date()
	return fmt.Sprintf("%04d-%02d", t.Year(), int(t.Month()))
}

// ParseMonth parses a study month from its Label form ("2021-03") or its
// String form ("3/2021"). Months outside the study window are rejected
// rather than clamped, so callers can surface typos.
func ParseMonth(s string) (Month, error) {
	t, err := time.Parse("2006-01", s)
	if err != nil {
		if t, err = time.Parse("1/2006", s); err != nil {
			return 0, fmt.Errorf("types: bad month %q (want YYYY-MM, e.g. %q)", s, Month(0).Label())
		}
	}
	m := Month((t.Year()-studyStart.Year())*12 + int(t.Month()) - int(studyStart.Month()))
	if m < 0 || m >= StudyMonths {
		return 0, fmt.Errorf("types: month %q outside the study window %s..%s",
			s, Month(0).Label(), Month(StudyMonths-1).Label())
	}
	return m, nil
}

// ParseMonthRange parses an inclusive month range "2021-03..2021-06". A
// single month selects just that month; the empty string selects the full
// study window.
func ParseMonthRange(s string) (from, to Month, err error) {
	if s == "" {
		return 0, StudyMonths - 1, nil
	}
	lo, hi, found := strings.Cut(s, "..")
	if !found {
		hi = lo
	}
	if from, err = ParseMonth(lo); err != nil {
		return 0, 0, err
	}
	if to, err = ParseMonth(hi); err != nil {
		return 0, 0, err
	}
	if to < from {
		return 0, 0, fmt.Errorf("types: month range %q runs backwards", s)
	}
	return from, to, nil
}

// MonthOf maps a timestamp to its study Month. Times before the window
// clamp to 0 and after to StudyMonths-1.
func MonthOf(t time.Time) Month {
	years := t.Year() - studyStart.Year()
	months := int(t.Month()) - int(studyStart.Month())
	m := Month(years*12 + months)
	if m < 0 {
		return 0
	}
	if m >= StudyMonths {
		return StudyMonths - 1
	}
	return m
}

// Timeline maps block numbers to calendar time for a compressed chain.
// BlocksPerMonth blocks are minted per calendar month, evenly spaced.
type Timeline struct {
	// BlocksPerMonth is the compression factor; mainnet has ~190k.
	BlocksPerMonth uint64
	// StartBlock is the number of the first block in the study window.
	StartBlock uint64
	// FirstMonth is the calendar month StartBlock falls in. The default 0
	// starts at May 2020 like the paper; a later month truncates the front
	// of the window (e.g. a post-London-only run) while keeping block→month
	// mapping aligned with the calendar.
	FirstMonth Month
}

// DefaultTimeline compresses each month to the given block count, starting
// at block 10,000,000 like the paper.
func DefaultTimeline(blocksPerMonth uint64) Timeline {
	return Timeline{BlocksPerMonth: blocksPerMonth, StartBlock: 10_000_000}
}

// TimelineFrom starts the window at a later calendar month. The start
// block shifts forward by the skipped months so block numbers line up with
// the full-window timeline at the same compression.
func TimelineFrom(blocksPerMonth uint64, first Month) Timeline {
	if first < 0 {
		first = 0
	}
	if first >= StudyMonths {
		first = StudyMonths - 1
	}
	tl := DefaultTimeline(blocksPerMonth)
	tl.StartBlock += uint64(first) * blocksPerMonth
	tl.FirstMonth = first
	return tl
}

// Months is the number of calendar months the timeline spans.
func (tl Timeline) Months() int { return int(StudyMonths - tl.FirstMonth) }

// TotalBlocks is the number of blocks across the timeline's window.
func (tl Timeline) TotalBlocks() uint64 { return tl.BlocksPerMonth * uint64(tl.Months()) }

// EndBlock is the last block number in the window (inclusive).
func (tl Timeline) EndBlock() uint64 { return tl.StartBlock + tl.TotalBlocks() - 1 }

// MonthOfBlock returns the study Month a block number falls into.
func (tl Timeline) MonthOfBlock(number uint64) Month {
	if number < tl.StartBlock {
		return tl.FirstMonth
	}
	m := tl.FirstMonth + Month((number-tl.StartBlock)/tl.BlocksPerMonth)
	if m >= StudyMonths {
		return StudyMonths - 1
	}
	return m
}

// TimeOfBlock returns the timestamp for a block number: blocks are evenly
// spaced within their month.
func (tl Timeline) TimeOfBlock(number uint64) time.Time {
	m := tl.MonthOfBlock(number)
	start := m.Date()
	end := (m + 1).Date()
	if number < tl.StartBlock {
		return start
	}
	idx := (number - tl.StartBlock) % tl.BlocksPerMonth
	span := end.Sub(start)
	return start.Add(span * time.Duration(idx) / time.Duration(tl.BlocksPerMonth))
}

// Unanchored returns the timeline re-anchored at the study's first
// month. Block numbering is calendar-aligned across anchorings
// (TimelineFrom), so the result maps every block to its true study
// month, where tl clamps blocks below its StartBlock to FirstMonth.
func (tl Timeline) Unanchored() Timeline {
	tl.StartBlock -= uint64(tl.FirstMonth) * tl.BlocksPerMonth
	tl.FirstMonth = 0
	return tl
}

// FirstBlockOfMonth returns the number of the first block in month m.
// Months before the timeline's first month return 0, which is below any
// real block number, so ranges over them are empty.
func (tl Timeline) FirstBlockOfMonth(m Month) uint64 {
	if m < tl.FirstMonth {
		return 0
	}
	return tl.StartBlock + uint64(m-tl.FirstMonth)*tl.BlocksPerMonth
}

// LondonForkBlock returns the first block with EIP-1559 pricing active.
func (tl Timeline) LondonForkBlock() uint64 { return tl.FirstBlockOfMonth(LondonForkMonth) }

// FlashbotsLaunchBlock returns the first block at which Flashbots bundles
// may be mined.
func (tl Timeline) FlashbotsLaunchBlock() uint64 { return tl.FirstBlockOfMonth(FlashbotsLaunchMonth) }
