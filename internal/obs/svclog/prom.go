package svclog

import (
	"fmt"
	"maps"
	"strconv"
	"strings"
)

// PromSample is one parsed sample line.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// PromFamily is one parsed metric family.
type PromFamily struct {
	Name    string
	Type    string
	Samples []PromSample
}

// ParsePromText parses and validates Prometheus text exposition (version
// 0.0.4, as obs.Registry.WritePrometheus renders it): every
// sample line must parse, belong to a family whose # TYPE was declared
// first, and histogram families must have cumulative, non-decreasing
// buckets ending in le="+Inf" with _count equal to the +Inf bucket. This is
// the soak harness's "parseable by a test, not by eye" check.
func ParsePromText(text string) (map[string]*PromFamily, error) {
	fams := map[string]*PromFamily{}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				return nil, fmt.Errorf("line %d: malformed TYPE: %q", ln+1, line)
			}
			name, typ := parts[2], parts[3]
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown metric type %q", ln+1, typ)
			}
			if _, dup := fams[name]; dup {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			fams[name] = &PromFamily{Name: name, Type: typ}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or comment
		}
		s, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		fam := fams[s.Name]
		if fam == nil {
			// histogram/summary series land under the base family name
			base := s.Name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if strings.HasSuffix(s.Name, suf) {
					base = strings.TrimSuffix(s.Name, suf)
					break
				}
			}
			fam = fams[base]
			if fam == nil {
				return nil, fmt.Errorf("line %d: sample %q has no preceding # TYPE", ln+1, s.Name)
			}
		}
		fam.Samples = append(fam.Samples, s)
	}
	for _, fam := range fams {
		if fam.Type == "histogram" {
			if err := validateHistogram(fam); err != nil {
				return nil, fmt.Errorf("histogram %s: %w", fam.Name, err)
			}
		}
	}
	return fams, nil
}

func parsePromSample(line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value separator in %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if s.Name == "" || !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name in %q", line)
	}
	if strings.HasPrefix(rest, "{") {
		var err error
		if rest, err = parseLabels(rest, s.Labels); err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return s, fmt.Errorf("no value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64) // accepts +Inf, -Inf, NaN
	if err != nil {
		return s, fmt.Errorf("bad value %q", fields[0])
	}
	s.Value = v
	return s, nil
}

// parseLabels reads the label set opening at s[0] into labels, unescaping
// each quoted value in the same pass, and returns the rest of the line after
// the closing `}`. A `}` or `,` inside a quoted value (route patterns like
// "GET /api/v1/jobs/{id}") belongs to the value. The escapes are the
// writer's (\\, \", \n); an unknown one keeps its backslash, as the text
// format specifies, so a literal backslash-n written as `\\n` comes back as
// two characters, never a newline.
func parseLabels(s string, labels map[string]string) (string, error) {
	for i := 1; ; {
		if i < len(s) && s[i] == '}' {
			return s[i+1:], nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 || i+eq+1 >= len(s) || s[i+eq+1] != '"' {
			return "", fmt.Errorf("malformed or unquoted label")
		}
		k := s[i : i+eq]
		var v strings.Builder
		for i += eq + 2; i < len(s) && s[i] != '"'; i++ {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				i++
				switch c = s[i]; c {
				case 'n':
					c = '\n'
				case '\\', '"':
				default:
					v.WriteByte('\\')
				}
			}
			v.WriteByte(c)
		}
		if i >= len(s) {
			return "", fmt.Errorf("unterminated label set")
		}
		labels[k] = v.String()
		if i++; i < len(s) && s[i] == ',' {
			i++
		}
	}
}

func validMetricName(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return len(name) > 0
}

// validateHistogram checks cumulative bucket monotonicity and the
// _count == le="+Inf" identity per label set.
func validateHistogram(fam *PromFamily) error {
	type series struct {
		buckets []PromSample
		count   float64
		hasCnt  bool
	}
	bySet := map[string]*series{}
	keyOf := func(labels map[string]string) string {
		rest := maps.Clone(labels)
		delete(rest, "le")
		return fmt.Sprint(rest) // fmt prints maps in key order
	}
	for _, s := range fam.Samples {
		key := keyOf(s.Labels)
		sr := bySet[key]
		if sr == nil {
			sr = &series{}
			bySet[key] = sr
		}
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			sr.buckets = append(sr.buckets, s)
		case strings.HasSuffix(s.Name, "_count"):
			sr.count = s.Value
			sr.hasCnt = true
		}
	}
	for key, sr := range bySet {
		if len(sr.buckets) == 0 {
			return fmt.Errorf("series %q has no buckets", key)
		}
		last := sr.buckets[len(sr.buckets)-1]
		if last.Labels["le"] != "+Inf" {
			return fmt.Errorf("series %q does not end at le=\"+Inf\"", key)
		}
		prev := -1.0
		for _, b := range sr.buckets {
			if b.Value < prev {
				return fmt.Errorf("series %q buckets not cumulative (le=%q: %v < %v)",
					key, b.Labels["le"], b.Value, prev)
			}
			prev = b.Value
		}
		if sr.hasCnt && sr.count != last.Value {
			return fmt.Errorf("series %q _count %v != +Inf bucket %v", key, sr.count, last.Value)
		}
	}
	return nil
}
