package server

// The client-side wire golden lives in the external test package, beside the
// other tests that drive occupancy.Client, and shares the batch and the body
// constant with TestIngestWireGolden through these.
var (
	WireGoldenBatch = wireGoldenBatch
	WireBodyGolden  = wireBodyGolden
)
