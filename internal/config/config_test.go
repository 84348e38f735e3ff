package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const goodDoc = `{
  "name": "suite1",
  "controllers": [
    {
      "device": "rpp1", "level": "leaf", "limit_watts": 190000,
      "quota_watts": 156000,
      "agents": [
        {"id": "srv1", "service": "web", "generation": "haswell2015", "addr": "10.0.0.1:7080"},
        {"id": "srv2", "service": "cache", "addr": "10.0.0.2:7080"}
      ]
    },
    {
      "device": "rpp2", "level": "leaf", "limit_watts": 190000,
      "poll_seconds": 5, "use_pid": true,
      "agents": [{"id": "srv3", "service": "web", "addr": "10.0.0.3:7080"}]
    },
    {
      "device": "sb1", "level": "upper", "limit_watts": 1250000,
      "bands": {"cap_threshold_frac": 0.99, "cap_target_frac": 0.95, "uncap_threshold_frac": 0.90},
      "children": [
        {"device": "rpp1", "quota_watts": 156000},
        {"device": "rpp2", "quota_watts": 156000},
        {"addr": "10.1.0.9:7090", "quota_watts": 156000}
      ]
    }
  ]
}`

func TestParseGood(t *testing.T) {
	s, err := Parse([]byte(goodDoc))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "suite1" || len(s.Controllers) != 3 {
		t.Fatalf("parsed %+v", s)
	}
	if s.Controllers[1].Poll() != 5*time.Second {
		t.Errorf("poll = %v", s.Controllers[1].Poll())
	}
	if !s.Controllers[1].UsePID {
		t.Error("use_pid lost")
	}
	if s.Controllers[2].Bands == nil || s.Controllers[2].Bands.CapTargetFrac != 0.95 {
		t.Error("bands lost")
	}
}

func TestLoadFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "suite.json")
	if err := os.WriteFile(path, []byte(goodDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"empty", `{"name":"x","controllers":[]}`, "no controllers"},
		{"badjson", `{`, "config:"},
		{"duplicate", `{"controllers":[
			{"device":"a","level":"leaf","limit_watts":1,"agents":[{"id":"s","addr":"x"}]},
			{"device":"a","level":"leaf","limit_watts":1,"agents":[{"id":"s","addr":"x"}]}]}`,
			"duplicate"},
		{"badlevel", `{"controllers":[{"device":"a","level":"mid","limit_watts":1}]}`, "unknown level"},
		{"nolimit", `{"controllers":[{"device":"a","level":"leaf","agents":[{"id":"s","addr":"x"}]}]}`, "positive limit"},
		{"leafnoagents", `{"controllers":[{"device":"a","level":"leaf","limit_watts":1}]}`, "no agents"},
		{"leafchildren", `{"controllers":[{"device":"a","level":"leaf","limit_watts":1,
			"agents":[{"id":"s","addr":"x"}],"children":[{"device":"a"}]}]}`, "must not declare children"},
		{"uppernochildren", `{"controllers":[{"device":"a","level":"upper","limit_watts":1}]}`, "no children"},
		{"upperagents", `{"controllers":[
			{"device":"l","level":"leaf","limit_watts":1,"agents":[{"id":"s","addr":"x"}]},
			{"device":"a","level":"upper","limit_watts":1,"agents":[{"id":"s","addr":"x"}],
			 "children":[{"device":"l"}]}]}`, "must not declare agents"},
		{"unknownsibling", `{"controllers":[{"device":"a","level":"upper","limit_watts":1,
			"children":[{"device":"ghost"}]}]}`, "unknown sibling"},
		{"bothrefs", `{"controllers":[
			{"device":"l","level":"leaf","limit_watts":1,"agents":[{"id":"s","addr":"x"}]},
			{"device":"a","level":"upper","limit_watts":1,
			 "children":[{"device":"l","addr":"y"}]}]}`, "both device and addr"},
		{"norefs", `{"controllers":[{"device":"a","level":"upper","limit_watts":1,
			"children":[{}]}]}`, "neither device nor addr"},
		{"badbands", `{"controllers":[{"device":"a","level":"leaf","limit_watts":1,
			"agents":[{"id":"s","addr":"x"}],
			"bands":{"cap_threshold_frac":0.9,"cap_target_frac":0.95,"uncap_threshold_frac":0.8}}]}`, "invalid bands"},
		{"agentnoaddr", `{"controllers":[{"device":"a","level":"leaf","limit_watts":1,
			"agents":[{"id":"s"}]}]}`, "without id/addr"},
		{"emptydevice", `{"controllers":[{"device":"","level":"leaf","limit_watts":1,
			"agents":[{"id":"s","addr":"x"}]}]}`, "empty device"},
		{"negativenonserver", `{"controllers":[{"device":"a","level":"leaf","limit_watts":1,
			"non_server_watts":-1,"agents":[{"id":"s","addr":"x"}]}]}`, "non_server_watts"},
		{"uppernonserver", `{"controllers":[
			{"device":"l","level":"leaf","limit_watts":1,"agents":[{"id":"s","addr":"x"}]},
			{"device":"a","level":"upper","limit_watts":1,"non_server_watts":150,
			 "children":[{"device":"l"}]}]}`, "non_server_watts"},
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.doc))
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %q does not contain %q", c.name, err, c.want)
		}
	}
}
