package metrics

// LoadDist is the JSON snapshot of one backend-load series (per-bucket
// queue depths, admission latencies) read from a stats.Acc: the
// backend-model counterpart of the fleet layer's device distributions.
type LoadDist struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
}
