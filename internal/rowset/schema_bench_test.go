package rowset

import (
	"fmt"
	"testing"
)

// BenchmarkSchemaWidth builds a schema of qualified names, as a statement's
// scan does for every table it reads, and looks up every column once, as
// resolving a SELECT * does; at the widths of the workloads' tables and of
// wide imports.
func BenchmarkSchemaWidth(b *testing.B) {
	for _, width := range []int{4, 20, 64, 256} {
		cols := make([]Column, width)
		names := make([]string, width)
		for i := range cols {
			cols[i] = Column{Name: fmt.Sprintf("Customers.Attribute %d", i), Type: TypeLong}
			names[i] = fmt.Sprintf("customers.ATTRIBUTE %d", i)
		}
		b.Run(fmt.Sprint(width), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := NewSchema(cols...)
				if err != nil {
					b.Fatal(err)
				}
				for _, n := range names {
					if _, ok := s.Lookup(n); !ok {
						b.Fatal(n)
					}
				}
			}
		})
	}
}
