"""Deterministic synthetic report corpus with a documented noisy-rule signal.

Every report draws a species, demographics, one-to-three drugs from a
species-appropriate pool and one-to-four adverse events. The hidden outcome
model is a logistic rule over known report properties:

    score = BASE
          + sum of per-HLT severity weights over the report's distinct HLTs
          + OLD_AGE_BONUS    if age exceeds 75% of the species' maximum
          + HEAVY_BONUS      if a livestock animal is 25% above typical weight
          + per-drug lethality weights
          + HIGH_MW_BONUS    if summed molecular weight exceeds 1200 g/mol

    P(Death) = sigmoid(score)

Severities are banded so the learning problem is separable but not trivial:
critical events (necropsy findings, collapse, lung and heart disorders) push
P(Death) past 0.8 on their own, a serious band (neurological/hepatic/renal/
haematological/immune) lands near 0.15-0.3 and crosses 0.5 only when age,
weight or drug modifiers stack on top, and the mild majority stays under
0.05. The serious band is what makes minority-focused rebalancing visibly
lift Death recall for shallow trees.

Outcomes are Bernoulli draws from that probability, so the signal is strong
but noisy. A fixed fraction of reports is relabeled Euthanized (preferring
high-risk rows), another fraction gets a lack-of-efficacy event, a slice of
recoveries becomes "Recovered with Sequela", and a final slice has its label
hidden as Ongoing/Unknown to feed the semi-supervised stage. All randomness
comes from one seeded generator, so the corpus is reproducible byte-for-byte.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

import numpy as np

from .ingest import descriptor_table

_DATA_DIR = Path(__file__).parent / "data"

BASE = -5.7
OLD_AGE_BONUS = 1.3
HEAVY_BONUS = 0.9
HIGH_MW_BONUS = 0.6
HIGH_MW_THRESHOLD = 1200.0
SEVERE_REPORT_RATE = 0.26
CRITICAL_SHARE = 0.55  # of severe reports, the rest draw from the serious band
EUTHANIZED_RATE = 0.03
EFFICACY_RATE = 0.02
UNLABELED_RATE = 0.18
SEQUELA_RATE = 0.02

HLT_SEVERITY = {
    "Pathology gross necropsy findings": 7.6,
    "Collapse and shock": 7.2,
    "Bronchial and lung disorders": 6.6,
    "Heart disorders": 6.3,
    "Neurological disorders": 3.0,
    "Hepatic disorders": 2.8,
    "Renal disorders": 2.8,
    "Haematological disorders": 2.6,
    "Immune system disorders": 2.6,
    "Systemic disorders": 0.4,
    "Gastrointestinal signs": 0.4,
    "Appetite disorders": 0.3,
    "Behavioural disorders": 0.2,
    "Reproductive disorders": 0.2,
    "Musculoskeletal disorders": 0.0,
    "Ocular disorders": -0.2,
    "Stomach disorders": -0.6,
    "Application site disorders": -1.0,
    "Epidermal and dermal disorders": -1.0,
    "Injection site reactions": -1.2,
}

# near-deterministic fatality once present
CRITICAL_HLTS = (
    "Pathology gross necropsy findings",
    "Collapse and shock",
    "Bronchial and lung disorders",
    "Heart disorders",
)

# borderline band: outcome hinges on age/weight/drug modifiers
SERIOUS_HLTS = (
    "Neurological disorders",
    "Hepatic disorders",
    "Renal disorders",
    "Haematological disorders",
    "Immune system disorders",
)

MILD_HLTS = tuple(h for h in HLT_SEVERITY if h not in CRITICAL_HLTS + SERIOUS_HLTS)

# species -> (weight, age range years, typical weight kg, weight sd, breeds)
SPECIES = {
    "Dog": (0.28, (0.2, 15.0), 25.0, 10.0,
            ("Labrador Retriever", "Beagle", "German Shepherd", "Mixed", "Terrier")),
    "Cat": (0.18, (0.2, 18.0), 4.2, 1.0, ("Domestic Shorthair", "Siamese", "Maine Coon", "Mixed")),
    "Cattle": (0.13, (0.1, 10.0), 550.0, 150.0, ("Angus", "Holstein", "Hereford")),
    "Horse": (0.07, (0.5, 25.0), 480.0, 80.0, ("Quarter Horse", "Thoroughbred", "Arabian")),
    "Pig": (0.07, (0.1, 4.0), 120.0, 60.0, ("Yorkshire", "Duroc")),
    "Sheep": (0.05, (0.1, 8.0), 70.0, 15.0, ("Merino", "Suffolk")),
    "Goat": (0.04, (0.1, 9.0), 55.0, 12.0, ("Boer", "Nubian")),
    "Chicken": (0.12, (0.05, 3.0), 2.6, 0.7, ("Broiler", "Leghorn")),
    "Turkey": (0.06, (0.05, 2.5), 9.0, 2.5, ("Broad Breasted White",)),
}

LIVESTOCK = ("Cattle", "Horse", "Pig", "Sheep", "Goat")

# ingredient -> (lethality weight, ATC code, dosage form, route)
DRUGS = {
    "Carprofen": (0.0, "QM01AE91", "Tablet", "Oral"),
    "Meloxicam": (0.0, "QM01AE92", "Oral suspension", "Oral"),
    "Acetylsalicylic acid": (0.1, "QN02BE01", "Tablet", "Oral"),
    "Firocoxib": (0.0, "QM01AH90", "Tablet", "Oral"),
    "Grapiprant": (-0.6, "QM01AH92", "Tablet", "Oral"),
    "Maropitant citrate": (-0.8, "QN05CM90", "Injectable solution", "Subcutaneous"),
    "Ivermectin": (0.5, "QP54AA01", "Injectable solution", "Subcutaneous"),
    "Milbemycin oxime": (0.8, "QP54AB01", "Tablet", "Oral"),
    "Moxidectin": (0.4, "QP54AA05", "Topical solution", "Topical"),
    "Selamectin": (-0.3, "QP54AA06", "Topical solution", "Topical"),
    "Fipronil": (-0.4, "QP53AX15", "Topical solution", "Topical"),
    "Afoxolaner": (-0.3, "QP53AX27", "Chewable tablet", "Oral"),
    "Amoxicillin": (0.0, "QJ01CA04", "Tablet", "Oral"),
    "Oxytetracycline": (0.9, "QJ01AA06", "Injectable solution", "Intramuscular"),
    "Tilmicosin": (1.8, "QJ01FA91", "Injectable solution", "Subcutaneous"),
    "Tildipirosin": (0.9, "QJ01FA96", "Injectable solution", "Subcutaneous"),
    "Gamithromycin": (-0.4, "QJ01FA95", "Injectable solution", "Subcutaneous"),
    "Tulathromycin": (0.2, "QJ01FA94", "Injectable solution", "Subcutaneous"),
    "Gentamicin sulfate": (-0.3, "QJ01GB03", "Injectable solution", "Intramuscular"),
    "Sulfadimethoxine": (0.8, "QJ01EQ09", "Medicated feed", "Oral"),
    "Enrofloxacin": (0.0, "QJ01MA90", "Injectable solution", "Subcutaneous"),
    "Florfenicol": (0.2, "QJ01BA90", "Injectable solution", "Subcutaneous"),
    "Monensin": (1.6, "QP51AH01", "Medicated feed", "Oral"),
    "Lasalocid": (0.8, "QP51AH02", "Medicated feed", "Oral"),
    "Salinomycin": (1.0, "QP51AH03", "Medicated feed", "Oral"),
    "Narasin": (1.0, "QP51AH04", "Medicated feed", "Oral"),
    "Amprolium": (0.0, "QP51AX09", "Medicated feed", "Oral"),
    "Roxarsone": (0.7, "QP51AX91", "Medicated feed", "Oral"),
    "Fenbendazole": (0.0, "QP52AC13", "Oral suspension", "Oral"),
    "Praziquantel": (0.0, "QP52AC30", "Tablet", "Oral"),
    "Xylazine": (0.6, "QN05CM92", "Injectable solution", "Intramuscular"),
    "Ketamine": (0.4, "QN01AX03", "Injectable solution", "Intravenous"),
    "Dexmedetomidine": (0.3, "QN05CM18", "Injectable solution", "Intravenous"),
    "Propofol": (0.5, "QN01AX10", "Injectable solution", "Intravenous"),
    "Acepromazine": (0.2, "QN05CM94", "Tablet", "Oral"),
    "Butorphanol": (0.1, "QN02AF01", "Injectable solution", "Intravenous"),
}

DRUG_POOLS = {
    "Companion": (
        "Carprofen", "Meloxicam", "Grapiprant", "Firocoxib", "Maropitant citrate",
        "Milbemycin oxime", "Ivermectin", "Selamectin", "Fipronil", "Afoxolaner",
        "Moxidectin", "Amoxicillin", "Enrofloxacin", "Praziquantel", "Fenbendazole",
        "Ketamine", "Dexmedetomidine", "Propofol", "Acepromazine", "Butorphanol",
        "Acetylsalicylic acid",
    ),
    "Livestock": (
        "Tilmicosin", "Tildipirosin", "Gamithromycin", "Tulathromycin",
        "Oxytetracycline", "Florfenicol", "Enrofloxacin", "Gentamicin sulfate",
        "Sulfadimethoxine", "Fenbendazole", "Ivermectin", "Moxidectin", "Meloxicam",
        "Xylazine", "Ketamine", "Monensin", "Amprolium",
    ),
    "Poultry": (
        "Monensin", "Lasalocid", "Salinomycin", "Narasin", "Amprolium", "Roxarsone",
        "Sulfadimethoxine", "Amoxicillin", "Enrofloxacin",
    ),
}

SPECIES_POOL = {s: ("Companion" if s in ("Dog", "Cat") else "Poultry" if s in ("Chicken", "Turkey") else "Livestock") for s in SPECIES}

GENDERS = ("Female", "Male")


def _sigmoid(z: float) -> float:
    return 1.0 / (1.0 + math.exp(-z))


def _pts_by_hlt() -> dict[str, list[str]]:
    """Preferred terms per HLT, read from the bundled ontology snapshot."""
    by_hlt: dict[str, list[str]] = {}
    with open(_DATA_DIR / "veddra.tsv", encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            term, hlt = line.split("\t")[:2]
            by_hlt.setdefault(hlt, []).append(term)
    return by_hlt


def _descriptor_mw() -> dict[str, float]:
    table = descriptor_table(DRUGS)
    out = {}
    for name in DRUGS:
        found = table.get(name.strip().lower())
        out[name] = found.molecular_weight if found and found.molecular_weight else 0.0
    return out


class CorpusBuilder:
    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.pts_by_hlt = _pts_by_hlt()
        self.mw = _descriptor_mw()
        self.counts = {"reports": 0, "events": 0, "outcomes": 0, "drugs": 0}
        self.outcome_distribution: dict[str, int] = {}

    def _pick_hlts(self) -> list[str]:
        rng = self.rng
        n_events = int(rng.integers(1, 5))
        hlts = []
        if rng.random() < SEVERE_REPORT_RATE:
            band = CRITICAL_HLTS if rng.random() < CRITICAL_SHARE else SERIOUS_HLTS
            hlts.append(str(rng.choice(band)))
            n_events -= 1
            # serious cases occasionally cascade into a second one
            if band is SERIOUS_HLTS and n_events > 0 and rng.random() < 0.2:
                hlts.append(str(rng.choice(SERIOUS_HLTS)))
                n_events -= 1
        for _ in range(max(n_events, 0)):
            hlts.append(str(rng.choice(MILD_HLTS)))
        return hlts

    def _reaction_entry(self, hlt: str) -> dict:
        rng = self.rng
        roll = rng.random()
        if roll < 0.12:
            # report the high-level term directly
            return {"veddra_term_name": hlt, "veddra_level": "HLT", "veddra_version": "11"}
        pts = self.pts_by_hlt[hlt]
        term = str(rng.choice(pts))
        level = "LLT" if roll < 0.2 else "PT"
        entry = {"veddra_term_name": term, "veddra_level": level, "veddra_version": "11"}
        if rng.random() < 0.8:
            entry["veddra_term_code"] = str(int(rng.integers(100, 5000)))
        return entry

    def make_report(self, index: int) -> tuple[dict, str]:
        rng = self.rng
        species_names = list(SPECIES)
        weights = np.array([SPECIES[s][0] for s in species_names])
        species = str(rng.choice(species_names, p=weights / weights.sum()))
        _, (age_lo, age_hi), typical_w, w_sd, breeds = SPECIES[species]
        pool = DRUG_POOLS[SPECIES_POOL[species]]

        age_years = float(rng.uniform(age_lo, age_hi))
        weight_kg = max(float(rng.normal(typical_w, w_sd)), typical_w * 0.1)

        hlts = self._pick_hlts()
        drugs = [str(d) for d in rng.choice(pool, size=int(rng.integers(1, 4)), replace=False)]

        score = BASE + sum(HLT_SEVERITY[h] for h in set(hlts))
        if age_years > 0.75 * age_hi:
            score += OLD_AGE_BONUS
        if species in LIVESTOCK and weight_kg > 1.25 * typical_w:
            score += HEAVY_BONUS
        score += sum(DRUGS[d][0] for d in drugs)
        if sum(self.mw[d] for d in drugs) > HIGH_MW_THRESHOLD:
            score += HIGH_MW_BONUS
        p_death = _sigmoid(score)
        died = bool(rng.random() < p_death)

        # outcome relabeling: euthanasia (risk-weighted), sequela, hidden labels
        if rng.random() < EUTHANIZED_RATE * (0.5 + 2.0 * p_death):
            status = "Euthanized"
        elif rng.random() < UNLABELED_RATE:
            status = "Ongoing" if rng.random() < 0.5 else "Unknown"
        elif died:
            status = "Died" if rng.random() < 0.7 else "Death"
        elif rng.random() < SEQUELA_RATE:
            status = "Recovered with Sequela"
        else:
            status = "Recovered" if rng.random() < 0.6 else "Recovered/Normal"

        reactions = [self._reaction_entry(h) for h in hlts]
        if rng.random() < EFFICACY_RATE:
            reactions.append(self._reaction_entry("Lack of efficacy"))

        drug_entries = []
        for name in drugs:
            _, atc, form, route = DRUGS[name]
            entry = {
                "active_ingredients": [{"name": name}],
                "brand_name": f"{name.split()[0]}-Vet",
                "dosage_form": form,
                "route": route,
                "atc_vet_code": atc,
            }
            if rng.random() < 0.12:
                entry.pop("dosage_form")
            if rng.random() < 0.10:
                entry.pop("route")
            if rng.random() < 0.05:
                entry["atc_vet_code"] = atc[:4]  # under-specified level
            drug_entries.append(entry)

        animal: dict = {"species": species}
        if rng.random() >= 0.20:
            animal["breed"] = {"breed_component": str(rng.choice(breeds))}
        if rng.random() >= 0.07:
            animal["gender"] = str(rng.choice(GENDERS))
        if rng.random() >= 0.08:
            unit_roll = rng.random()
            if unit_roll < 0.55:
                animal["age"] = {"min": f"{age_years:.2f}", "unit": "Year"}
            elif unit_roll < 0.75:
                animal["age"] = {"min": f"{age_years * 12:.1f}", "unit": "Month"}
            elif unit_roll < 0.9:
                animal["age"] = {"min": f"{age_years * 365.25 / 7:.1f}", "unit": "Week"}
            else:
                animal["age"] = {"min": f"{age_years * 365.25:.0f}", "unit": "Day"}
        if rng.random() >= 0.10:
            unit_roll = rng.random()
            if unit_roll < 0.6:
                animal["weight"] = {"min": f"{weight_kg:.2f}", "unit": "Kilogram"}
            elif unit_roll < 0.85:
                animal["weight"] = {"min": f"{weight_kg / 0.45359237:.2f}", "unit": "Pound"}
            else:
                animal["weight"] = {"min": f"{weight_kg * 1000:.0f}", "unit": "Gram"}

        year = 2019 + index % 6
        month = 1 + int(rng.integers(0, 12))
        day = 1 + int(rng.integers(0, 28))
        record = {
            "unique_aer_id_number": f"SYN-{index:06d}",
            "original_receive_date": f"{year:04d}{month:02d}{day:02d}",
            "animal": animal,
            "outcome": [
                {"medical_status": status, "number_of_animals_affected": str(int(rng.integers(1, 4)))}
            ],
            "reaction": reactions,
            "drug": drug_entries,
        }
        self.counts["reports"] += 1
        self.counts["events"] += len(reactions)
        self.counts["outcomes"] += 1
        self.counts["drugs"] += len(drug_entries)
        self.outcome_distribution[status] = self.outcome_distribution.get(status, 0) + 1
        return record, status


def generate_records(n_reports: int, seed: int) -> tuple[list[dict], dict]:
    """All report records plus a manifest of counts tallied at generation time."""
    builder = CorpusBuilder(seed)
    records = [builder.make_report(i)[0] for i in range(n_reports)]
    manifest = {
        "seed": seed,
        "counts": builder.counts,
        "outcome_distribution": dict(sorted(builder.outcome_distribution.items())),
    }
    return records, manifest


def write_corpus(
    out_dir: Path,
    n_reports: int = 5000,
    seed: int = 20240801,
    quarters: int = 4,
) -> dict:
    """Write quarterly JSON files (last one gzipped) under out_dir/quarters/
    plus manifest.json beside them."""
    out_dir = Path(out_dir)
    quarter_dir = out_dir / "quarters"
    quarter_dir.mkdir(parents=True, exist_ok=True)
    records, manifest = generate_records(n_reports, seed)
    per_quarter = [len(chunk) for chunk in np.array_split(np.arange(n_reports), quarters)]
    files = []
    start = 0
    for q, size in enumerate(per_quarter, start=1):
        chunk = records[start : start + size]
        start += size
        document = json.dumps({"results": chunk}, indent=1, sort_keys=True)
        if q == quarters:
            name = f"corpus-q{q}.json.gz"
            (quarter_dir / name).write_bytes(gzip.compress(document.encode("utf-8"), mtime=0))
        else:
            name = f"corpus-q{q}.json"
            (quarter_dir / name).write_text(document, encoding="utf-8")
        files.append(name)
    manifest["files"] = files
    manifest["reports_per_file"] = per_quarter
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return manifest
