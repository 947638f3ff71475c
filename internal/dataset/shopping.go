package dataset

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/document"
)

// productFamily describes one product category of the shopping corpus: the
// umbrella entity it belongs to (e.g. "canonproducts"), its category value,
// brands, name prefixes, and category-specific feature attributes with their
// value vocabularies. Each generated product carries the umbrella words in
// its title (so the Table 1 queries retrieve it) and a set of feature
// triplets (so expanded queries can pin exact features, as in Figures 8–9).
type productFamily struct {
	label      string // ground-truth label for clustering checks
	entity     string // triplet entity, e.g. "canonproducts"
	titleWords string // words every title contains, e.g. "canon products"
	category   string // category triplet value, e.g. "camera"
	brands     []string
	namePref   []string // model-name prefixes, e.g. "pixma"
	features   []featureSpec
	count      int // base number of products (scaled by the generator)
}

type featureSpec struct {
	attribute string
	values    []string
}

// shoppingFamilies mirrors the product landscape implied by the paper's
// QS queries and the Figures 8–9 expansions: Canon cameras / camcorders /
// printers, networking routers / switches / firewalls, plasma and LCD TVs,
// HP printers / batteries / laptops, four kinds of memory, and printers.
func shoppingFamilies() []productFamily {
	return []productFamily{
		{
			label: "canon-camera", entity: "canonproducts",
			titleWords: "canon products", category: "camera",
			brands:   []string{"canon"},
			namePref: []string{"powershot", "eos", "rebel"},
			features: []featureSpec{
				{"image resolution", []string{"4752 x 3168", "3648 x 2736", "5184 x 3456"}},
				{"shutter speed", []string{"15 - 13,200 sec.", "30 - 8000 sec."}},
				{"zoom", []string{"4x", "10x", "12x"}},
			},
			count: 14,
		},
		{
			label: "canon-camcorder", entity: "canonproducts",
			titleWords: "canon products", category: "camcorders",
			brands:   []string{"canon"},
			namePref: []string{"vixia", "fs"},
			features: []featureSpec{
				{"media", []string{"flash", "dvd", "hdd"}},
				{"optical zoom", []string{"37x", "41x", "20x"}},
			},
			count: 10,
		},
		{
			label: "canon-printer", entity: "canonproducts",
			titleWords: "canon products printer", category: "printer",
			brands:   []string{"canon"},
			namePref: []string{"pixma", "imageclass"},
			features: []featureSpec{
				{"printmethod", []string{"inkjet", "laser"}},
				{"condition", []string{"new", "refurbished"}},
			},
			count: 12,
		},
		{
			label: "networking-router", entity: "networkingproducts",
			titleWords: "networking products router", category: "routers",
			brands:   []string{"linksys", "cisco", "netgear", "d-link"},
			namePref: []string{"rangemax", "integr", "wrt"},
			features: []featureSpec{
				{"rj-45ports", []string{"4", "8"}},
				{"features", []string{"mac filtering", "qos", "dhcp"}},
				{"wireless", []string{"802.11g", "802.11n"}},
			},
			count: 13,
		},
		{
			label: "networking-switch", entity: "networkingproducts",
			titleWords: "networking products switches ethernet", category: "switches",
			brands:   []string{"d-link", "netgear", "cisco"},
			namePref: []string{"des", "gs"},
			features: []featureSpec{
				{"ports", []string{"5", "8", "16", "24"}},
				{"speed", []string{"10/100", "gigabit"}},
			},
			count: 10,
		},
		{
			label: "networking-firewall", entity: "networkingproducts",
			titleWords: "networking products firewalls", category: "firewalls",
			brands:   []string{"sonicwall", "d-link", "zyxel"},
			namePref: []string{"dir", "tz"},
			features: []featureSpec{
				{"vlans", []string{"portshield", "tagged"}},
				{"form factor", []string{"desktop", "rackmount"}},
				{"vpn", []string{"ipsec", "ssl"}},
			},
			count: 9,
		},
		{
			label: "tv-plasma", entity: "tv",
			titleWords: "tv television plasma", category: "plasma",
			brands:   []string{"panasonic", "samsung", "lg"},
			namePref: []string{"viera", "pn"},
			features: []featureSpec{
				{"displayarea", []string{"42`", "50`", "58`"}},
				{"displaytype", []string{"plasma hdtv"}},
				{"resolution", []string{"1080p", "720p"}},
			},
			count: 11,
		},
		{
			label: "tv-lcd", entity: "tv",
			titleWords: "tv television lcd", category: "lcd",
			brands:   []string{"toshiba", "lg", "samsung", "sony"},
			namePref: []string{"regza", "bravia", "lg"},
			features: []featureSpec{
				{"displayarea", []string{"26`", "32`", "42`"}},
				{"displaytype", []string{"lcd hdtv"}},
				{"resolution", []string{"1080p", "720p"}},
			},
			count: 13,
		},
		{
			label: "hp-printer", entity: "hpproducts",
			titleWords: "hp products printer", category: "printer",
			brands:   []string{"hp"},
			namePref: []string{"laserjet", "deskjet", "officejet"},
			features: []featureSpec{
				{"printmethod", []string{"laser", "inkjet"}},
				{"condition", []string{"new"}},
			},
			count: 11,
		},
		{
			label: "hp-battery", entity: "hpproducts",
			titleWords: "hp products battery", category: "battery",
			brands:   []string{"hp"},
			namePref: []string{"pavilion", "compaq"},
			features: []featureSpec{
				{"compatible models", []string{"pavilion dv6", "pavilion dv7", "compaq 6720"}},
				{"cells", []string{"6", "9", "12"}},
			},
			count: 9,
		},
		{
			label: "hp-laptop", entity: "hpproducts",
			titleWords: "hp products laptop", category: "laptop",
			brands:   []string{"hp"},
			namePref: []string{"pavilion", "elitebook"},
			features: []featureSpec{
				{"screen", []string{"14`", "15.6`", "17`"}},
				{"processor", []string{"core 2 duo", "athlon x2", "turion"}},
			},
			count: 10,
		},
		{
			label: "memory-harddrive", entity: "memory",
			titleWords: "memory internal storage", category: "harddrive",
			brands:   []string{"hitachi", "seagate", "cavalry", "western digital"},
			namePref: []string{"deskstar", "barracuda", "cavalry"},
			features: []featureSpec{
				{"memory size", []string{"250gb", "500gb", "1tb"}},
				{"interface", []string{"sata", "ide"}},
				{"mount", []string{"internal", "external"}},
			},
			count: 14,
		},
		{
			label: "memory-flash", entity: "memory",
			titleWords: "memory flash portable", category: "flashmemory",
			brands:   []string{"sandisk", "transcend", "kingston"},
			namePref: []string{"cruzer", "jetflash"},
			features: []featureSpec{
				{"memory size", []string{"4gb", "8gb", "16gb"}},
				{"format", []string{"sd", "usb", "compactflash"}},
			},
			count: 13,
		},
		{
			label: "memory-ddr2", entity: "memory",
			titleWords: "memory ram module", category: "ddr2",
			brands:   []string{"kingston", "corsair", "transcend"},
			namePref: []string{"valueram", "xms2"},
			features: []featureSpec{
				{"memory size", []string{"2gb", "4gb"}},
				{"speed", []string{"667mhz", "800mhz"}},
				{"mount", []string{"internal"}},
			},
			count: 8,
		},
		{
			label: "memory-ddr3", entity: "memory",
			titleWords: "memory ram module", category: "ddr3",
			brands:   []string{"kingston", "corsair", "crucial"},
			namePref: []string{"hyperx", "vengeance"},
			features: []featureSpec{
				{"memory size", []string{"4gb", "8gb"}},
				{"speed", []string{"1333mhz", "1600mhz"}},
				{"mount", []string{"internal"}},
			},
			count: 9,
		},
	}
}

// shoppingQueries is Table 1's shopping column.
func shoppingQueries() []TestQuery {
	return []TestQuery{
		{ID: "QS1", Raw: "canon products"},
		{ID: "QS2", Raw: "networking products"},
		{ID: "QS3", Raw: "networking products routers"},
		{ID: "QS4", Raw: "tv"},
		{ID: "QS5", Raw: "tv plasma"},
		{ID: "QS6", Raw: "hp products"},
		{ID: "QS7", Raw: "memory"},
		{ID: "QS8", Raw: "memory 8gb"},
		{ID: "QS9", Raw: "memory internal"},
		{ID: "QS10", Raw: "printer"},
	}
}

// shoppingLog synthesizes the query-log suggestions the paper quotes from
// Google for the shopping queries, including out-of-corpus brands ("sony
// products") and off-domain senses ("tv hair products", "wood routers").
func shoppingLog() []baseline.LogEntry {
	return []baseline.LogEntry{
		{Query: "canon products camera", Count: 950},
		{Query: "sony products", Count: 930},
		{Query: "canon products printer", Count: 640},
		{Query: "social networking products", Count: 980},
		{Query: "computer networking products", Count: 890},
		{Query: "networking products price", Count: 560},
		{Query: "networking wireless routers", Count: 720},
		{Query: "network routers", Count: 680},
		{Query: "wood routers", Count: 610},
		{Query: "networking products routers cisco", Count: 300},
		{Query: "tv guide products", Count: 990},
		{Query: "tv electronics", Count: 840},
		{Query: "tv hair products", Count: 500},
		{Query: "tv plasma vs lcd", Count: 870},
		{Query: "tv lcd", Count: 790},
		{Query: "tv bestbuy plasma", Count: 410},
		{Query: "hp products corporation", Count: 860},
		{Query: "hp products printer", Count: 820},
		{Query: "hp products laptop", Count: 760},
		{Query: "human memory", Count: 970},
		{Query: "computer memory", Count: 880},
		{Query: "memory game", Count: 770},
		{Query: "memory cards 8gb", Count: 750},
		{Query: "memory 8gb flash", Count: 590},
		{Query: "memory 8gb ram", Count: 430},
		{Query: "dell memory internal", Count: 520},
		{Query: "memory internal dell d", Count: 210},
		{Query: "canon printer", Count: 910},
		{Query: "hp printer", Count: 900},
		{Query: "printer reviews", Count: 480},
	}
}

// Shopping generates the shopping dataset. scale multiplies the per-family
// product counts (scale 1 ≈ 150 products, in the ballpark of the paper's
// per-query result counts; QS8's largest-cluster keyword count grows with
// scale). Deterministic per seed.
func Shopping(seed int64, scale int) *Dataset {
	if scale < 1 {
		scale = 1
	}
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{
		Name:    "shopping",
		Corpus:  document.NewCorpus(),
		Queries: shoppingQueries(),
		Labels:  map[document.DocID]string{},
		Log:     shoppingLog(),
	}
	// Generic merchandising words shared across every family — the
	// too-general vocabulary that tf-weighted word clouds are drawn to, and
	// the cross-category noise that keeps single keywords from being
	// perfectly selective.
	marketing := []string{"black", "compact", "digital", "portable",
		"premium", "series", "pro", "edition", "warranty", "sale"}
	for _, fam := range shoppingFamilies() {
		n := fam.count * scale
		for i := 0; i < n; i++ {
			brand := pick(rng, fam.brands)
			name := fmt.Sprintf("%s %s", pick(rng, fam.namePref), model(rng, "m"))
			var title strings.Builder
			title.WriteString(fam.titleWords + " " + brand + " " + name)
			writeWords(&title, rng, marketing, 1+rng.Intn(3))
			triplets := []document.Triplet{
				{Entity: fam.entity, Attribute: "category", Value: fam.category},
				{Entity: fam.category, Attribute: "brand", Value: brand},
				{Entity: fam.category, Attribute: "name", Value: name},
			}
			for _, fs := range fam.features {
				triplets = append(triplets, document.Triplet{
					Entity:    fam.category,
					Attribute: fs.attribute,
					Value:     pick(rng, fs.values),
				})
			}
			id := d.Corpus.AddStructured(title.String(), triplets)
			d.Labels[id] = fam.label
		}
	}
	d.buildIndex(analysis.Simple())
	return d
}
