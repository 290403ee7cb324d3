//! The security service: authentication, authorization, encryption
//! (paper Sec 4.2: "It provides authorization, authentication and
//! encryption functions for users"). One instance runs cluster-wide.

pub(crate) mod mac;

use phoenix_proto::{Action, AuthToken, KernelMsg, Role, UserId};
use phoenix_sim::{Actor, Ctx, Pid, SimDuration};
use std::collections::HashMap;

pub use mac::{keyed_hash, keyed_hash_fields, xor_stream};

/// How long issued tokens stay valid (virtual time).
const TOKEN_TTL: SimDuration = SimDuration::from_secs(24 * 3600);

/// A user record in the security database.
#[derive(Clone, Debug)]
struct UserRecord {
    secret_hash: u64,
    role: Role,
}

/// The cluster-wide security service actor.
pub(crate) struct SecurityService {
    key: u64,
    users: HashMap<UserId, UserRecord>,
}

impl SecurityService {
    /// Create the service with a signing key and a set of
    /// `(user, secret, role)` accounts.
    pub(crate) fn new(key: u64, accounts: &[(&str, &str, Role)]) -> Self {
        let mut users = HashMap::new();
        for (name, secret, role) in accounts {
            users.insert(
                UserId::new(*name),
                UserRecord {
                    secret_hash: mac::keyed_hash(key, secret.as_bytes()),
                    role: *role,
                },
            );
        }
        SecurityService { key, users }
    }

    /// Compute the MAC of a token body.
    fn token_mac(key: u64, user: &UserId, role: Role, expires_ns: u64) -> u64 {
        let role_byte = [role as u8];
        mac::keyed_hash_fields(
            key,
            &[user.0.as_bytes(), &role_byte, &expires_ns.to_le_bytes()],
        )
    }

    /// Issue a token if the secret matches.
    fn login(&self, user: &UserId, secret: &str, now_ns: u64) -> Option<AuthToken> {
        let rec = self.users.get(user)?;
        if mac::keyed_hash(self.key, secret.as_bytes()) != rec.secret_hash {
            return None;
        }
        let expires_ns = now_ns + TOKEN_TTL.as_nanos();
        Some(AuthToken {
            user: user.clone(),
            role: rec.role,
            expires_ns,
            mac: Self::token_mac(self.key, user, rec.role, expires_ns),
        })
    }

    /// Verify token integrity and expiry, then consult the role policy.
    fn check(&self, token: &AuthToken, action: Action, now_ns: u64) -> bool {
        if token.expires_ns <= now_ns {
            return false;
        }
        if Self::token_mac(self.key, &token.user, token.role, token.expires_ns) != token.mac {
            return false;
        }
        token.role.may(action)
    }
}

impl Actor<KernelMsg> for SecurityService {
    fn on_start(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        ctx.service_up("security");
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, KernelMsg>, from: Pid, msg: KernelMsg) {
        match msg {
            KernelMsg::SecLogin { req, user, secret } => {
                let token = self.login(&user, &secret, ctx.now().as_nanos());
                ctx.send(from, KernelMsg::SecLoginResp { req, token });
            }
            KernelMsg::SecCheck { req, token, action } => {
                let allowed = self.check(&token, action, ctx.now().as_nanos());
                ctx.send(from, KernelMsg::SecCheckResp { req, allowed });
            }
            _ => {} // boot and unrelated messages are ignored
        }
    }

    fn name(&self) -> &str {
        "security"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc() -> SecurityService {
        SecurityService::new(
            0xFEED,
            &[
                ("alice", "wonderland", Role::ScientificUser),
                ("root", "toor", Role::SystemConstructor),
            ],
        )
    }

    #[test]
    fn login_with_correct_secret_issues_token() {
        let s = svc();
        let t = s.login(&UserId::new("alice"), "wonderland", 0).unwrap();
        assert_eq!(t.role, Role::ScientificUser);
        assert!(s.check(&t, Action::SubmitJob, 1));
    }

    #[test]
    fn login_with_wrong_secret_fails() {
        let s = svc();
        assert!(s.login(&UserId::new("alice"), "oops", 0).is_none());
        assert!(s.login(&UserId::new("nobody"), "x", 0).is_none());
    }

    #[test]
    fn tampered_token_rejected() {
        let s = svc();
        let mut t = s.login(&UserId::new("alice"), "wonderland", 0).unwrap();
        t.role = Role::SystemConstructor; // privilege escalation attempt
        assert!(!s.check(&t, Action::Reconfigure, 1));
    }

    #[test]
    fn expired_token_rejected() {
        let s = svc();
        let t = s.login(&UserId::new("alice"), "wonderland", 0).unwrap();
        assert!(!s.check(&t, Action::SubmitJob, t.expires_ns));
    }

    #[test]
    fn policy_enforced_per_role() {
        let s = svc();
        let alice = s.login(&UserId::new("alice"), "wonderland", 0).unwrap();
        let root = s.login(&UserId::new("root"), "toor", 0).unwrap();
        assert!(!s.check(&alice, Action::ShutdownNode, 1));
        assert!(s.check(&root, Action::ShutdownNode, 1));
    }

    #[test]
    fn mac_depends_on_expiry() {
        let s = svc();
        let mut t = s.login(&UserId::new("alice"), "wonderland", 0).unwrap();
        t.expires_ns += 1; // extend lifetime
        assert!(!s.check(&t, Action::SubmitJob, 1));
    }
}
