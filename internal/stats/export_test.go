package stats

// SeriesPaths returns the sampler's series paths in scrape order.
func (s *Sampler) SeriesPaths() []string {
	out := make([]string, len(s.series))
	for i, ss := range s.series {
		out[i] = ss.path
	}
	return out
}
