package dataset

import (
	"fmt"
	"math/rand"
)

// Vocabulary pools for generated factual metadata. The metadata is
// deliberately only weakly coupled to the latent perceptual geometry: the
// paper's point (§4.3) is that factual attributes do not contain perceptual
// judgments, so the LSI baseline must fail to extract them.
var (
	titleAdjectives = []string{
		"Lost", "Silent", "Golden", "Broken", "Midnight", "Crimson",
		"Hidden", "Final", "Eternal", "Distant", "Burning", "Frozen",
		"Savage", "Gentle", "Electric", "Hollow", "Scarlet", "Iron",
	}
	titleNouns = []string{
		"River", "Empire", "Shadow", "Garden", "Highway", "Station",
		"Harbor", "Mountain", "Letter", "Promise", "Voyage", "Castle",
		"Orchard", "Mirror", "Storm", "Canyon", "Lantern", "Bridge",
	}
	countries = []string{
		"us", "uk", "fr", "de", "it", "jp", "in", "ca", "es", "se",
	}
	plotWords = []string{
		"story", "life", "family", "city", "man", "woman", "journey",
		"secret", "past", "night", "world", "house", "friend", "father",
		"mother", "town", "year", "dream", "truth", "war", "home",
		"stranger", "memory", "road", "heart", "child", "game", "letter",
		"summer", "winter", "band", "school", "team", "crime", "case",
		"doctor", "artist", "writer", "detective", "teacher", "village",
	}
	// genreHints maps category names to a weakly-linked vocabulary token.
	// Hints are injected with low probability so the metadata space carries
	// a trace of signal — enough to overfit on, not enough to classify by.
	genreHints = map[string]string{
		"Comedy":      "laugh",
		"Documentary": "archive",
		"Drama":       "tears",
		"Family":      "kids",
		"Horror":      "scream",
		"Romance":     "kiss",
	}
)

// fillMetadata assigns names, years, countries, directors and actors.
func fillMetadata(u *Universe, rng *rand.Rand) {
	cfg := u.Config
	nDirectors := cfg.Items/15 + 2
	nActors := cfg.Items/4 + 5

	for i := range u.Items {
		it := &u.Items[i]
		if it.Name == "" {
			adj := titleAdjectives[rng.Intn(len(titleAdjectives))]
			noun := titleNouns[rng.Intn(len(titleNouns))]
			it.Name = fmt.Sprintf("The %s %s #%d", adj, noun, i)
		}
		it.Year = 1935 + rng.Intn(76)
		it.Country = countries[rng.Intn(len(countries))]
		it.Director = fmt.Sprintf("director_%d", rng.Intn(nDirectors))
		nCast := 2 + rng.Intn(3)
		for a := 0; a < nCast; a++ {
			it.Actors = append(it.Actors, fmt.Sprintf("actor_%d", rng.Intn(nActors)))
		}
	}
}

// Documents renders one metadata document per item for the LSI baseline:
// title, plot keywords, cast, director, year bucket and country, mirroring
// the attribute list of §4.3. Category hints leak in with low probability
// to model the faint perceptual traces real metadata carries.
func (u *Universe) Documents(seed int64) [][]string {
	rng := rand.New(rand.NewSource(seed))
	docs := make([][]string, len(u.Items))
	for i, it := range u.Items {
		var doc []string
		// Title words (lowercased naive split).
		for _, tok := range tokenizeName(it.Name) {
			doc = append(doc, tok)
		}
		// Plot keywords.
		nPlot := 8 + rng.Intn(10)
		for k := 0; k < nPlot; k++ {
			doc = append(doc, plotWords[rng.Intn(len(plotWords))])
		}
		// Weak category hints, in declaration order: the draws below
		// share rng with every other token of the corpus.
		for _, spec := range u.Config.Categories {
			hint, ok := genreHints[spec.Name]
			if !ok || spec.Kind != Perceptual {
				continue
			}
			if u.Categories[spec.Name].Reference[i] && rng.Float64() < 0.15 {
				doc = append(doc, hint)
			}
		}
		// Cast and crew.
		doc = append(doc, it.Director)
		doc = append(doc, it.Actors...)
		// Era bucket and country.
		doc = append(doc, fmt.Sprintf("era_%d", it.Year/10*10))
		doc = append(doc, "country_"+it.Country)
		docs[i] = doc
	}
	return docs
}

func tokenizeName(name string) []string {
	var out []string
	cur := make([]rune, 0, 16)
	flush := func() {
		if len(cur) > 0 {
			out = append(out, string(cur))
			cur = cur[:0]
		}
	}
	for _, r := range name {
		switch {
		case r >= 'A' && r <= 'Z':
			cur = append(cur, r+('a'-'A'))
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			cur = append(cur, r)
		default:
			flush()
		}
	}
	flush()
	return out
}
