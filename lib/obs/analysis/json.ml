include Poe_obs.Json
