package measure

// MergedChain exposes the header-level chain a merge rebuilds.
var MergedChain = mergedChain
