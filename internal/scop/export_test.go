package scop

// Materialized reports whether s has enumerated its domain and access
// relations: the probe the lazy-decoding tests assert through, since
// timing alone cannot prove that nothing was enumerated. Call it only
// when no goroutine may be materializing s.
func Materialized(s *Statement) bool { return s.domain != nil }
