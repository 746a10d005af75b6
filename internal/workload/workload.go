// Package workload generates the synthetic customer warehouse used by the
// examples, the tests and the benchmark. The paper's examples run against a
// Customers / Product-Purchases / Car-Ownership star schema that we cannot
// obtain (it was Microsoft's internal demo data), so this package plants a
// controlled equivalent with known structure:
//
//   - three customer archetypes (family / student / professional) with
//     distinct age distributions, product baskets, and car ownership;
//   - a deterministic association rule (Beer buyers also buy Chips);
//   - product → product-type relations (the paper's RELATED TO example).
//
// The planted structure gives the accuracy tests ground truth: an
// algorithm that works recovers the archetypes, the age/gender split, and
// the basket rule.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/rowset"
	"repro/internal/storage"
)

// Config sizes the generated warehouse.
type Config struct {
	// Customers is the number of customer cases.
	Customers int
	// Seed makes generation deterministic.
	Seed int64
	// ExtraNoiseProducts adds unrelated catalog items bought at random,
	// inflating the attribute space (used by scalability sweeps).
	ExtraNoiseProducts int
}

// Archetype identifies the planted customer segment.
type Archetype int

// The planted segments.
const (
	Family Archetype = iota
	Student
	Professional
)

func (a Archetype) String() string {
	switch a {
	case Family:
		return "family"
	case Student:
		return "student"
	case Professional:
		return "professional"
	}
	return fmt.Sprintf("Archetype(%d)", int(a))
}

// Truth records the generator's ground truth for evaluation.
type Truth struct {
	// ArchetypeOf maps customer ID → planted archetype.
	ArchetypeOf map[int64]Archetype
	// AgeOf maps customer ID → true age.
	AgeOf map[int64]float64
	// GenderOf maps customer ID → gender string.
	GenderOf map[int64]string
	// BeerBuyers lists customers whose baskets contain Beer; ChipsBuyers
	// likewise — the planted rule is Beer ⇒ Chips with ~0.9 confidence.
	BeerBuyers, ChipsBuyers map[int64]bool
	// NextPage is the planted most-likely transition of the Visits
	// clickstream (home→search→product→checkout with noise).
	NextPage map[string]string
}

// product catalog: name → type (the RELATED TO relation).
var catalog = []struct{ name, ptype string }{
	{"TV", "Electronic"}, {"VCR", "Electronic"}, {"Laptop", "Electronic"},
	{"Ham", "Food"}, {"Milk", "Food"}, {"Bread", "Food"}, {"Diapers", "Baby"},
	{"Beer", "Beverage"}, {"Wine", "Beverage"}, {"Soda", "Beverage"},
	{"Chips", "Snack"}, {"Candy", "Snack"},
}

// basket probabilities per archetype, in fixed order so generation is
// deterministic for a given seed.
type productProb struct {
	product string
	prob    float64
}

var basketProb = map[Archetype][]productProb{
	Family: {
		{"Milk", 0.9}, {"Bread", 0.8}, {"Diapers", 0.7}, {"Ham", 0.6}, {"TV", 0.3}, {"Soda", 0.4},
	},
	Student: {
		{"Beer", 0.8}, {"Chips", 0.2}, {"Soda", 0.6}, {"Candy", 0.5}, {"Bread", 0.3},
	},
	Professional: {
		{"Wine", 0.7}, {"Laptop", 0.6}, {"TV", 0.5}, {"Ham", 0.4}, {"Beer", 0.25},
	},
}

// carProb maps archetype → (car, ownership probability).
var carProb = map[Archetype][]struct {
	car  string
	prob float64
}{
	Family:       {{"Van", 0.8}, {"Truck", 0.3}},
	Student:      {{"Bike", 0.5}},
	Professional: {{"Sedan", 0.9}, {"Truck", 0.15}},
}

// Populate creates Customers, Sales, Cars, and Visits tables in db and
// fills them according to cfg, returning the ground truth. Existing tables
// with those names are an error (use a fresh database per run).
func Populate(db *storage.Database, cfg Config) (*Truth, error) {
	if cfg.Customers <= 0 {
		return nil, fmt.Errorf("workload: Customers must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	customers, err := db.CreateTable("Customers", rowset.MustSchema(
		rowset.Column{Name: "Customer ID", Type: rowset.TypeLong},
		rowset.Column{Name: "Gender", Type: rowset.TypeText},
		rowset.Column{Name: "Hair Color", Type: rowset.TypeText},
		rowset.Column{Name: "Age", Type: rowset.TypeDouble},
		rowset.Column{Name: "Age Prob", Type: rowset.TypeDouble},
	))
	if err != nil {
		return nil, err
	}
	sales, err := db.CreateTable("Sales", rowset.MustSchema(
		rowset.Column{Name: "CustID", Type: rowset.TypeLong},
		rowset.Column{Name: "Product Name", Type: rowset.TypeText},
		rowset.Column{Name: "Quantity", Type: rowset.TypeDouble},
		rowset.Column{Name: "Product Type", Type: rowset.TypeText},
	))
	if err != nil {
		return nil, err
	}
	cars, err := db.CreateTable("Cars", rowset.MustSchema(
		rowset.Column{Name: "CustID", Type: rowset.TypeLong},
		rowset.Column{Name: "Car", Type: rowset.TypeText},
		rowset.Column{Name: "Probability", Type: rowset.TypeDouble},
	))
	if err != nil {
		return nil, err
	}
	visits, err := db.CreateTable("Visits", rowset.MustSchema(
		rowset.Column{Name: "CustID", Type: rowset.TypeLong},
		rowset.Column{Name: "Step", Type: rowset.TypeLong},
		rowset.Column{Name: "Page", Type: rowset.TypeText},
	))
	if err != nil {
		return nil, err
	}

	ptype := make(map[string]string, len(catalog))
	for _, c := range catalog {
		ptype[c.name] = c.ptype
	}
	noise := make([]string, cfg.ExtraNoiseProducts)
	for i := range noise {
		noise[i] = fmt.Sprintf("Gadget%03d", i)
		ptype[noise[i]] = "Gadget"
	}

	truth := &Truth{
		ArchetypeOf: make(map[int64]Archetype, cfg.Customers),
		AgeOf:       make(map[int64]float64, cfg.Customers),
		GenderOf:    make(map[int64]string, cfg.Customers),
		BeerBuyers:  make(map[int64]bool),
		ChipsBuyers: make(map[int64]bool),
		NextPage: map[string]string{
			"home": "search", "search": "product", "product": "checkout",
		},
	}
	hairColors := []string{"Black", "Brown", "Blond", "Red"}

	for i := 0; i < cfg.Customers; i++ {
		id := int64(i + 1)
		arch := Archetype(rng.Intn(3))
		truth.ArchetypeOf[id] = arch

		var age float64
		var gender string
		switch arch {
		case Family:
			age = 38 + rng.NormFloat64()*6
			gender = pick(rng, "Male", "Female")
		case Student:
			age = 22 + rng.NormFloat64()*3
			gender = pick(rng, "Male", "Female")
		case Professional:
			age = 48 + rng.NormFloat64()*7
			// Planted gender skew so Gender is informative about Age.
			if rng.Float64() < 0.7 {
				gender = "Male"
			} else {
				gender = "Female"
			}
		}
		if age < 18 {
			age = 18
		}
		truth.AgeOf[id] = age
		truth.GenderOf[id] = gender
		if err := customers.Insert(rowset.Row{
			id, gender, hairColors[rng.Intn(len(hairColors))], age, 0.9 + 0.1*rng.Float64(),
		}); err != nil {
			return nil, err
		}

		// Basket.
		boughtBeer := false
		for _, pp := range basketProb[arch] {
			if rng.Float64() >= pp.prob {
				continue
			}
			qty := float64(1 + rng.Intn(6))
			if err := sales.Insert(rowset.Row{id, pp.product, qty, ptype[pp.product]}); err != nil {
				return nil, err
			}
			if pp.product == "Beer" {
				boughtBeer = true
				truth.BeerBuyers[id] = true
			}
			if pp.product == "Chips" {
				truth.ChipsBuyers[id] = true
			}
		}
		// The planted rule: Beer ⇒ Chips at 90%.
		if boughtBeer && !truth.ChipsBuyers[id] && rng.Float64() < 0.9 {
			if err := sales.Insert(rowset.Row{id, "Chips", float64(1 + rng.Intn(3)), ptype["Chips"]}); err != nil {
				return nil, err
			}
			truth.ChipsBuyers[id] = true
		}
		for _, n := range noise {
			if rng.Float64() < 0.05 {
				if err := sales.Insert(rowset.Row{id, n, 1.0, ptype[n]}); err != nil {
					return nil, err
				}
			}
		}

		// Clickstream: home → search → product → checkout with wandering.
		page, step := "home", int64(0)
		if err := visits.Insert(rowset.Row{id, step, page}); err != nil {
			return nil, err
		}
		for page != "checkout" && step < 8 {
			step++
			switch page {
			case "home":
				page = "search"
			case "search":
				if rng.Float64() < 0.75 {
					page = "product"
				} else {
					page = "home"
				}
			case "product":
				if rng.Float64() < 0.6 {
					page = "checkout"
				} else {
					page = "search"
				}
			}
			if err := visits.Insert(rowset.Row{id, step, page}); err != nil {
				return nil, err
			}
		}

		// Cars.
		for _, cp := range carProb[arch] {
			if rng.Float64() < cp.prob {
				certainty := 1.0
				if rng.Float64() < 0.2 {
					certainty = 0.5 // the paper's "believed to own a van (50%)"
				}
				if err := cars.Insert(rowset.Row{id, cp.car, certainty}); err != nil {
					return nil, err
				}
			}
		}
	}
	return truth, nil
}

func pick(rng *rand.Rand, a, b string) string {
	if rng.Float64() < 0.5 {
		return a
	}
	return b
}

// PaperShape is the SHAPE statement assembling the full caseset over the
// generated warehouse — Table 1 of the paper as a query.
const PaperShape = `SHAPE
	{SELECT [Customer ID], [Gender], [Hair Color], [Age], [Age Prob] FROM Customers ORDER BY [Customer ID]}
	APPEND (
		{SELECT [CustID], [Product Name], [Quantity], [Product Type] FROM Sales ORDER BY [CustID]}
		RELATE [Customer ID] TO [CustID]) AS [Product Purchases]
	APPEND (
		{SELECT [CustID], [Car], [Probability] FROM Cars ORDER BY [CustID]}
		RELATE [Customer ID] TO [CustID]) AS [Car Ownership]`
