package mem

import "sort"

// Run is a range of consecutive words: Len words from word index Start
// (byte address >> 3). A written set is a list of runs in ascending order,
// each non-empty and none adjacent to the next, so a workload's output
// arrays take one Run each however many words they hold.
type Run struct {
	Start, Len uint64
}

// End returns the word index one past the run's last word.
func (r Run) End() uint64 { return r.Start + r.Len }

// FindRun returns the run of the ascending, disjoint runs that holds word
// w, by binary search.
func FindRun(runs []Run, w uint64) (Run, bool) {
	i := sort.Search(len(runs), func(i int) bool { return runs[i].End() > w })
	if i < len(runs) && runs[i].Start <= w {
		return runs[i], true
	}
	return Run{}, false
}

// AppendWord adds word w to runs, whose last run must end at or below w:
// it extends the last run when w follows it and starts a new run
// otherwise. Feeding it words in ascending order builds a written set.
func AppendWord(runs []Run, w uint64) []Run {
	if n := len(runs); n > 0 && runs[n-1].End() == w {
		runs[n-1].Len++
		return runs
	}
	return append(runs, Run{Start: w, Len: 1})
}
