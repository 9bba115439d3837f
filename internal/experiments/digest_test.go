package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
)

// exhibitDigests pins the SHA-256 of each experiment's Quick JSON
// report, the bytes of `dfly-experiments -quick -json NAME`. A change
// that moves any plotted number, label or note fails here and names the
// experiment it moved.
var exhibitDigests = map[string]string{
	"fig1":        "e1a00283f7247a84eee941a8d6031944484e15a39a41ead14c51487f0995bfc3",
	"table1":      "b3756d1e4989859903594042d16e43416e6b4d527eaaaf461900ca8759b8426d",
	"fig2":        "43ecbd6d96120452653cfd12cf323ace6018f4e80b8510b9e267396bc78db4b9",
	"fig4":        "e0947cd717849e9823ed8091e3e8f21a886c88dbc93e1c589b01e541306bd97c",
	"fig6":        "ddad912661b0f9e36c2e9ba2d1346cb4a81c9d690e985a43addb92cd739bb77f",
	"fig8":        "e3654087547d3d6bca7d83d0a534e38bc7aacb442a7e201a8ea49fb9d15a246b",
	"fig9":        "e7de0901c833360a1ea5891271f162598019960009dea1f02d4e29672613c5c6",
	"fig10":       "d9e14b205fa3ef493fd9a2defbd75bc7feb73a02450a81c4b2e624536e6e4936",
	"fig11":       "a96df217854045cb24c2d5419f56b561c30f6b7265053e35a2b1bfbb8bf695cd",
	"fig12":       "3682e222543fe4aa420c5d23a3f610c27d0077ffa5105a731aca00694f414872",
	"fig14":       "24ee04a43c0607441454b7a15d3704a11f96aac667b38ba04447ba2e1cb003fe",
	"fig16":       "deed7f386958c0e63a1aa9a32da7f8317890a9fb33dc5104c626753a51dd5ff4",
	"fig18":       "206fb60126749837ae37d9dadc0d619884d37cd838f39f1ab707867a320cd0f9",
	"fig19":       "410ff1e47798e94d6d6cf724dc1850868e872b556ec156d3c9c7654712dd8c7d",
	"table2":      "ccfdc3938a2fd1076cd2d4cdbc9d935d7dc3b1f3eb7716a38bd59f718d68e0e8",
	"resilience":  "349e6db5aa81130a6b1e6d31812c545f39ca3b16b5c080d10725c233443575b9",
	"transient":   "6a9c7dda2b462321966484354d2f28d88f1bdfe203e1d572a92a2895216a23e4",
	"topozoo":     "ffa0570400d82863e7ea679349edaebd22c5c023bfdadd26290d691487804917",
	"multitenant": "1eb5425ed5d181d1d88bffa72ce79161424728ba1195084502d369b206b53ebc",
}

func TestExhibitDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments")
	}
	if len(exhibitDigests) != len(Names()) {
		t.Errorf("%d digests for %d experiments", len(exhibitDigests), len(Names()))
	}
	r := Runner{Scale: Quick()}
	for _, name := range Names() {
		var buf bytes.Buffer
		if err := r.RunJSON(&buf, []string{name}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != exhibitDigests[name] {
			t.Errorf("%s: Quick JSON digest %s, want %s", name, got, exhibitDigests[name])
		}
	}
}
