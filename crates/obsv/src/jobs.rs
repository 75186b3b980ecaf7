//! Campaign fleet progress frames: the `{"type":"job"}` NDJSON record.
//!
//! The campaign collector rank emits one [`JobRecord`] per job per
//! progress round onto the same [`crate::FrameBus`] the live endpoint
//! serves, so a subscriber watching a parameter sweep sees every job's
//! step count, owner rank, rollback count, and — once done — its field
//! checksum, interleaved with the usual observable/metrics frames.

use crate::json::{parse_frame, JsonError};
use eutectica_telemetry::JsonObject;

/// Progress of one campaign job, as streamed to the collector rank and
/// published on the observability plane.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRecord {
    /// Dense job key from `CampaignSpec` expansion.
    pub job: u32,
    /// Human-readable parameter-point label (e.g. `v0.0200_g0.0010_c0_s42`).
    pub label: String,
    /// Rank currently stepping the job.
    pub rank: u64,
    /// Campaign progress round the frame was recorded in.
    pub round: u64,
    /// Completed steps.
    pub step: u64,
    /// Step target from the spec.
    pub steps_total: u64,
    /// Rollbacks consumed so far from the job's budget.
    pub rollbacks: u64,
    /// `"active"`, `"done"`, or `"failed"`.
    pub status: String,
    /// FNV-1a 64 checksum over the interior field bits; `0` until done.
    pub checksum: u64,
}

impl JobRecord {
    /// NDJSON wire form: `{"type":"job",...}`. The checksum travels as a
    /// fixed-width hex *string* — JSON numbers are f64 and would truncate
    /// a 64-bit digest.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .str_field("type", "job")
            .int_field("job", u64::from(self.job))
            .str_field("label", &self.label)
            .int_field("rank", self.rank)
            .int_field("round", self.round)
            .int_field("step", self.step)
            .int_field("steps_total", self.steps_total)
            .int_field("rollbacks", self.rollbacks)
            .str_field("status", &self.status)
            .str_field("checksum", &format!("{:016x}", self.checksum))
            .finish()
    }

    /// Parse a wire frame back into a record (smoke clients / tests).
    pub fn from_json(line: &str) -> Result<Self, JsonError> {
        let v = parse_frame(line, "job")?;
        let field = "checksum";
        let checksum = u64::from_str_radix(v.req_str(field)?, 16)
            .map_err(|_| JsonError::BadValue { field })?;
        Ok(Self {
            job: u32::try_from(v.req_u64("job")?)
                .map_err(|_| JsonError::BadValue { field: "job" })?,
            label: v.str("label").unwrap_or_default().to_string(),
            rank: v.req_u64("rank")?,
            round: v.req_u64("round")?,
            step: v.req_u64("step")?,
            steps_total: v.req_u64("steps_total")?,
            rollbacks: v.req_u64("rollbacks")?,
            status: v.req_str("status")?.to_string(),
            checksum,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_frame_round_trips() {
        let rec = JobRecord {
            job: 17,
            label: "v0.0200_g0.0010_c1_s7".into(),
            rank: 3,
            round: 12,
            step: 48,
            steps_total: 64,
            rollbacks: 1,
            status: "active".into(),
            checksum: 0xdead_beef_0123_4567,
        };
        let line = rec.to_json();
        assert!(line.starts_with("{\"type\":\"job\""), "{line}");
        let back = JobRecord::from_json(&line).expect("parse");
        assert_eq!(back, rec);
        // Checksums above 2^53 survive the hex-string encoding exactly.
        assert_eq!(back.checksum, 0xdead_beef_0123_4567);
        // Other frame types are rejected.
        assert_eq!(
            JobRecord::from_json("{\"type\":\"metrics\"}"),
            Err(JsonError::WrongType { frame: "job" })
        );
        assert_eq!(
            JobRecord::from_json("{\"type\":\"job\"}"),
            Err(JsonError::Missing { field: "checksum" })
        );
        // Integer fields hold non-negative integral numbers, nothing else.
        for value in ["-3", "1.5", "\"48\""] {
            let poked = line.replace("\"step\":48", &format!("\"step\":{value}"));
            assert_ne!(poked, line);
            assert_eq!(
                JobRecord::from_json(&poked),
                Err(JsonError::BadValue { field: "step" }),
                "{value}"
            );
        }
        assert_eq!(
            JobRecord::from_json(&line.replace("deadbeef", "deadbeeg")),
            Err(JsonError::BadValue { field: "checksum" })
        );
    }
}
