package store

// Hooks for the tests of package store_test, which import internal/txn (an
// importer of this package) and so cannot live in package store.
var (
	WriteSegmentsPacked    = writeSegmentsFile
	AssertAnswersIdentical = assertAnswersIdentical
	CorpusSeqs             = corpusSeqs
)
