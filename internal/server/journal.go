package server

// journalRecord is one line of the request journal: the outcome of one
// admitted request, appended (through exp.Appender) as the request
// finishes. Every append happens while the server's in-flight accounting
// holds the request open, so after a drain the journal holds a complete
// record of every admitted request, including the ones the drain
// deadline canceled.
type journalRecord struct {
	// ID is the request ID (X-Request-Id or generated).
	ID string `json:"id"`
	// Endpoint is "compile" or "grid".
	Endpoint string `json:"endpoint"`
	// Bench and Config identify a compile request's cell (empty for grid).
	Bench  string `json:"bench,omitempty"`
	Config string `json:"config,omitempty"`
	// Status is the HTTP status served.
	Status int `json:"status"`
	// Cache is "hit" or "miss" for compile requests served a result.
	Cache string `json:"cache,omitempty"`
	// Kind is the structured error kind for non-200 outcomes.
	Kind string `json:"kind,omitempty"`
	// DurationMS is request wall-clock in milliseconds.
	DurationMS int64 `json:"duration_ms"`
}
