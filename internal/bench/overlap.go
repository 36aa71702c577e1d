package bench

// CommLimited names the suite programs whose optimized run is
// communication-limited (Table 3's "Comm." rows) — the programs
// transfer/compute overlap is supposed to rescue, and the ones the
// overlap tests measure.
var CommLimited = []string{"atax", "bicg", "gemver", "gesummv"}
