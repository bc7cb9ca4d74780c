package obs

import (
	"fmt"
	"io"
)

// TenantRow is one tenant's service-level outcome, attributed from the
// service trace's tenant-* events.
type TenantRow struct {
	Tenant string
	Shard  int64
	// Admitted is false for tenants refused by admission control; Reason
	// carries why ("budget-cap", "deadline-cap"). Rejected tenants have
	// zero cost and JCT by construction — they never ran.
	Admitted bool
	Reason   string
	// Weight is the fair-share weight admission ordered the tenant by.
	Weight float64
	// NetCost/JCTHours come from the tenant-done event (zero until done).
	NetCost  float64
	JCTHours float64
	Done     bool
}

// TenantAttribution is the per-tenant breakdown of one service trace:
// rows in first-appearance (admission) order plus service-level totals.
type TenantAttribution struct {
	Rows []TenantRow

	Admitted int
	Rejected int
	// NetCost sums completed tenants' spend in event order.
	NetCost float64
}

// AttributeTenants folds a service recording into its per-tenant view. Like
// Attribute it is a pure function of the event slice: byte-identical traces
// attribute identically. Events of non-tenant kinds are ignored, so the
// helper also works on a recording that interleaves tenant markers with a
// traced tenant's own campaign events.
func AttributeTenants(r *Recording) TenantAttribution {
	var ta TenantAttribution
	idx := map[string]int{}
	rowOf := func(id string) *TenantRow {
		i, ok := idx[id]
		if !ok {
			i = len(ta.Rows)
			idx[id] = i
			ta.Rows = append(ta.Rows, TenantRow{Tenant: id})
		}
		return &ta.Rows[i]
	}
	for _, e := range r.Events() {
		switch e.Kind {
		case KindTenantAdmit:
			row := rowOf(e.Trial)
			row.Admitted = true
			row.Weight = e.A
			row.Shard = e.N
			ta.Admitted++
		case KindTenantReject:
			row := rowOf(e.Trial)
			row.Reason = e.Label
			row.Shard = e.N
			ta.Rejected++
		case KindTenantDone:
			row := rowOf(e.Trial)
			row.Done = true
			row.NetCost = e.A
			row.JCTHours = e.B
			ta.NetCost += e.A
		}
	}
	return ta
}

// WriteTable renders the per-tenant breakdown as an aligned text table (the
// view `scenarios -tenants` prints for batteries of up to 32 tenants).
func (ta TenantAttribution) WriteTable(w io.Writer) error {
	width := len("tenant")
	for _, row := range ta.Rows {
		if len(row.Tenant) > width {
			width = len(row.Tenant)
		}
	}
	if _, err := fmt.Fprintf(w, "%-*s %5s %8s %6s %10s %9s %s\n",
		width, "tenant", "shard", "admit", "weight", "net$", "jct_h", "reason"); err != nil {
		return err
	}
	for _, row := range ta.Rows {
		admit := "yes"
		if !row.Admitted {
			admit = "no"
		}
		if _, err := fmt.Fprintf(w, "%-*s %5d %8s %6.2f %10.4f %9.3f %s\n",
			width, row.Tenant, row.Shard, admit, row.Weight, row.NetCost, row.JCTHours, row.Reason); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-*s %5s %8s %6s %10.4f (admitted %d, rejected %d)\n",
		width, "TOTAL", "", "", "", ta.NetCost, ta.Admitted, ta.Rejected)
	return err
}
